"""Case assembly, the bracket identity, group law, and automorphisms."""

import numpy as np
import pytest
from _oracles import structure_constants

from nilharm.algebra import (
    OrthAutomorphism,
    build_case,
    check_structure,
    orbit_block,
    sample_automorphisms,
    sample_k_actions,
)
from nilharm.cases import CASES, block_diag
from nilharm.numerics import (
    BudgetError,
    as_rng,
    haar_special_orthogonal,
    haar_special_unitary,
    haar_symplectic_quat,
    haar_unitary,
)

ALL_CASES = [
    ("I", {"n": 2}),
    ("II", {"n": 1}),
    ("III", {"k1": 1, "k2": 1}),
    ("IV", {"n": 1}),
    ("V", {"n": 3}),
    ("VI", {"n": 2}),
    ("VI", {"n": 3}),
    ("VII", {"n": 2}),
    ("VIII", {"k": 1, "n": 1}),
    ("IX", {"n": 3}),
    ("X", {"m": 3, "k": 1, "n": 0}),
]

# every case whose g' has a Cartan chamber, VI at even n >= 4
CHAMBERED = [
    ("I", {"n": 2}), ("II", {"n": 1}), ("III", {"k1": 1, "k2": 1}), ("IV", {"n": 1}),
    ("V", {"n": 3}), ("VI", {"n": 4}), ("VIII", {"k": 1, "n": 1}), ("IX", {"n": 3}),
    ("X", {"m": 3, "k": 1, "n": 0}),
]
CHAMBERED_IDS = [c + "".join(str(v) for v in p.values()) for c, p in CHAMBERED]

EXPECTED_DIMS = {
    # case -> (dim_g, dim_v) for the parameters above
    ("I", 2): (3, 8),
    ("II", 1): (3, 7),
    ("III", (1, 1)): (6, 12),
    ("IV", 1): (10, 8),
    ("V", 3): (8, 6),
    ("VI", 2): (1, 2),
    ("VI", 3): (3, 3),
    ("VII", 2): (1, 4),
    ("VIII", (1, 1)): (4, 8),
    ("IX", 3): (9, 6),
    ("X", (3, 1, 0)): (12, 10),
}


@pytest.mark.parametrize("case,params", ALL_CASES)
def test_structure_identities(case, params):
    alg = build_case(case, **params)
    rep = check_structure(alg, rng=as_rng(0), trials=60)
    assert rep.max_skewness < 1e-12
    assert rep.max_closure_residual < 1e-10
    assert rep.max_jacobi_residual < 1e-10
    assert rep.max_invariance_residual < 1e-10
    assert rep.max_bracket_residual < 1e-12
    assert rep.bracket_rank == alg.dim_g  # brackets of V span g


# all ten cases, each at two sizes
TWO_SIZES = [
    ("I", {"n": 1}), ("I", {"n": 2}), ("II", {"n": 1}), ("II", {"n": 2}),
    ("III", {"k1": 1, "k2": 1}), ("III", {"k1": 0, "k2": 2}), ("IV", {"n": 1}), ("IV", {"n": 2}),
    ("V", {"n": 3}), ("V", {"n": 4}), ("VI", {"n": 3}), ("VI", {"n": 5}),
    ("VII", {"n": 1}), ("VII", {"n": 2}), ("VIII", {"k": 1, "n": 1}), ("VIII", {"k": 2, "n": 1}),
    ("IX", {"n": 3}), ("IX", {"n": 4}), ("X", {"m": 3, "k": 1, "n": 0}), ("X", {"m": 4, "k": 2, "n": 1}),
]
TWO_SIZES_IDS = [c + "".join(str(v) for v in p.values()) for c, p in TWO_SIZES]


@pytest.mark.parametrize("case,params", TWO_SIZES, ids=TWO_SIZES_IDS)
def test_structure_constants_match_a_per_pair_lstsq_oracle(case, params):
    # the Gram-solve readback against the least-squares coefficients of
    # each commutator [pi_a, pi_b] in the basis pi(X_c), one pair at a time
    alg = build_case(case, **params)
    d = alg.dim_g
    basis = alg.pi.reshape(d, -1).T
    want = np.zeros((d, d, d))
    for a in range(d):
        for b in range(d):
            comm = alg.pi[a] @ alg.pi[b] - alg.pi[b] @ alg.pi[a]
            want[a, b] = np.linalg.lstsq(basis, comm.ravel(), rcond=None)[0]
    assert np.max(np.abs(structure_constants(alg) - want)) <= 1e-13


@pytest.mark.parametrize("case,params", [("V", {"n": 3}), ("IX", {"n": 3}), ("X", {"m": 3, "k": 1, "n": 0})])
def test_check_structure_sees_a_generator_pushed_out_of_closure(monkeypatch, case, params):
    # a model built the usual way from a skew pi whose first generator
    # is moved by 1e-2 A, A generic skew: the commutators leave pi(g)
    family = CASES[case]
    gen = as_rng(9).standard_normal((build_case(case, **params).dim_v,) * 2)

    class Pushed(family.model):
        def __init__(self, params):
            super().__init__(params)
            self.pi = self.pi.copy()
            self.pi[0] += 1e-2 * (gen - gen.T)

    monkeypatch.setitem(CASES, case, family._replace(model=Pushed))
    rep = check_structure(build_case(case, **params), rng=as_rng(0), trials=5)
    assert rep.max_skewness < 1e-12
    assert rep.max_closure_residual >= 1e-3


@pytest.mark.parametrize("trials", [0, -3])
def test_check_structure_needs_a_trial(trials):
    # before, no trial ran and the bracket residual read 0.0
    with pytest.raises(ValueError, match="trials >= 1"):
        check_structure(build_case("V", n=3), rng=as_rng(0), trials=trials)


def test_check_structure_checks_its_tables_against_the_budget(monkeypatch):
    # VI(8): dim_g = 28, so 28^2 x 8^2 = 50,176 commutator entries fit
    # and the 28^4 = 614,656-entry Jacobi table does not
    alg = build_case("VI", n=8)
    monkeypatch.setenv("NILHARM_BUDGET", "100000")
    with pytest.raises(BudgetError, match="28\\^4 Jacobi-table entries"):
        check_structure(alg, rng=as_rng(0), trials=5)
    monkeypatch.setenv("NILHARM_BUDGET", "50000")
    with pytest.raises(BudgetError, match="commutator entries"):
        check_structure(alg, rng=as_rng(0), trials=5)


@pytest.mark.parametrize("case,params", [("I", {"n": 1}), ("V", {"n": 3}), ("X", {"m": 3, "k": 1, "n": 1})])
def test_orbit_pairing_stack_of_z_is_its_single_calls(case, params):
    alg = build_case(case, **params)
    rng = as_rng(11)
    vmats = alg.ops.sample_vmats(rng, 300)
    y = rng.standard_normal(alg.dim_g)
    zs = rng.standard_normal((4, alg.dim_g))
    forms = alg.kronecker_forms(y, zs)
    assert forms.shape == (4, alg.dim_v**2, alg.dim_v**2)
    assert np.array_equal(forms, np.stack([alg.kronecker_forms(y, z) for z in zs]))
    got = alg.pair_forms(vmats, forms)
    assert got.shape == (300, 4)
    assert np.array_equal(got, np.stack([alg.pair_forms(vmats, alg.kronecker_forms(y, z)) for z in zs], axis=1))


def test_orbit_pairing_checks_its_forms_against_the_budget(monkeypatch):
    # IX(5) has dim_v = 10: each z makes a 10^4-entry Kronecker form
    alg = build_case("IX", n=5)
    rng = as_rng(12)
    vmats = alg.ops.sample_vmats(rng, 3)
    y = rng.standard_normal(alg.dim_g)
    zs = rng.standard_normal((3, alg.dim_g))
    monkeypatch.setenv("NILHARM_BUDGET", "9999")
    with pytest.raises(BudgetError, match="1 x 10\\^4 Kronecker-form entries"):
        alg.kronecker_forms(y, zs[0])
    monkeypatch.setenv("NILHARM_BUDGET", "29999")
    with pytest.raises(BudgetError, match="3 x 10\\^4 Kronecker-form entries"):
        alg.kronecker_forms(y, zs)
    monkeypatch.setenv("NILHARM_BUDGET", "30000")
    assert alg.pair_forms(vmats, alg.kronecker_forms(y, zs)).shape == (3, 3)


@pytest.mark.parametrize("dim_v,block", [(1, 32768), (2, 8192), (4, 2048), (6, 910), (8, 512), (12, 227),
                                         (182, 1), (1000, 1)])
def test_orbit_block_holds_about_2_to_the_15_vmatrix_entries(dim_v, block):
    assert orbit_block(dim_v) == block


def test_orbit_pass_pairs_one_stack_in_blocks():
    # V(3), dim_v = 6: 2 full blocks of 910 samples and a partial one
    alg = build_case("V", n=3)
    rng = as_rng(13)
    forms = alg.kronecker_forms(rng.standard_normal(alg.dim_g), rng.standard_normal((2, alg.dim_g)))
    samples = 2 * orbit_block(alg.dim_v) + 300
    got = list(alg.orbit_pass(as_rng(14), samples, forms))
    assert [len(vmats) for vmats, _ in got] == [910, 910, 300]
    vmats = alg.ops.sample_vmats(as_rng(14), samples)
    assert np.array_equal(np.concatenate([b for b, _ in got]), vmats)
    for b, pair in got:
        assert np.array_equal(pair, alg.pair_forms(b, forms))
    # BLAS may round a row differently by the row count, in the last bits
    assert np.allclose(np.concatenate([p for _, p in got]), alg.pair_forms(vmats, forms), rtol=0, atol=1e-13)


@pytest.mark.parametrize("call,name", [
    (lambda alg: sample_k_actions(alg, as_rng(0), count=0), "count"),
    (lambda alg: sample_k_actions(alg, as_rng(0), count=2.5), "count"),
    (lambda alg: sample_k_actions(alg, as_rng(0), count=True), "count"),
    (lambda alg: check_structure(alg, as_rng(0), trials=2.5), "trials"),
    (lambda alg: check_structure(alg, as_rng(0), trials=True), "trials"),
    (lambda alg: haar_special_orthogonal(3, as_rng(0), 0), "size"),
    (lambda alg: haar_special_orthogonal(3, as_rng(0), 1.5), "size"),
    (lambda alg: haar_unitary(2, as_rng(0), 2.5), "size"),
    (lambda alg: haar_unitary(2, as_rng(0), True), "size"),
    (lambda alg: haar_special_unitary(3, as_rng(0), False), "size"),
    (lambda alg: haar_symplectic_quat(2, as_rng(0), 0), "size"),
    (lambda alg: haar_symplectic_quat(2, as_rng(0), 2.0), "size"),
], ids=["k-actions-0", "k-actions-float", "k-actions-bool", "structure-float", "structure-bool",
        "SO-0", "SO-float", "U-float", "U-bool", "SU-bool", "Sp-0", "Sp-float"])
def test_sample_counts_are_checked_and_named(call, name):
    # before, 0 failed inside numpy's reshape and a float or bool count
    # with a numpy TypeError (or a sample of bool size)
    with pytest.raises(ValueError, match=f"integer {name} >= 1"):
        call(build_case("VII", n=1))


def test_expected_dimensions():
    for case, params in ALL_CASES:
        alg = build_case(case, **params)
        key = (case, tuple(params.values()) if len(params) > 1 else next(iter(params.values())))
        dg, dv = EXPECTED_DIMS[key]
        assert (alg.dim_g, alg.dim_v) == (dg, dv), f"{case} {params}"


def test_bracket_identity_random_triples():
    rng = as_rng(1)
    alg = build_case("IX", n=3)
    for _ in range(30):
        u = rng.standard_normal(alg.dim_v)
        v = rng.standard_normal(alg.dim_v)
        x = rng.standard_normal(alg.dim_g)
        lhs = float(alg.bracket(u, v) @ x)
        rhs = float((alg.pi_of(x) @ u) @ v)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_bracket_batched_axes():
    rng = as_rng(2)
    alg = build_case("I", n=1)
    u = rng.standard_normal((5, alg.dim_v))
    v = rng.standard_normal((5, alg.dim_v))
    out = alg.bracket(u, v)
    assert out.shape == (5, alg.dim_g)
    for s in range(5):
        assert np.allclose(out[s], alg.bracket(u[s], v[s]), atol=1e-13)


BRACKET_SHAPES = [((7,), ()), ((), (7,)), ((7,), (7,)), ((), ()), ((2, 3), (3,))]


@pytest.mark.parametrize("case,params", ALL_CASES,
                         ids=[c + "".join(str(v) for v in p.values()) for c, p in ALL_CASES])
def test_bracket_broadcasts_against_the_pairing_oracle(case, params):
    # <bracket(u, v), X_x> = <pi(X_x) u, v> entry by entry, with u and v
    # of every broadcast shape the library uses
    assert {c for c, _ in ALL_CASES} == set(CASES)
    alg = build_case(case, **params)
    d = alg.dim_v
    rng = as_rng(21)
    for ushape, vshape in BRACKET_SHAPES + [(b, a) for a, b in BRACKET_SHAPES[4:]]:
        u = rng.standard_normal(ushape + (d,))
        v = rng.standard_normal(vshape + (d,))
        got = alg.bracket(u, v)
        lead = np.broadcast_shapes(ushape, vshape)
        assert got.shape == lead + (alg.dim_g,)
        ub, vb = np.broadcast_to(u, lead + (d,)), np.broadcast_to(v, lead + (d,))
        for s in np.ndindex(lead):
            want = np.array([float(np.dot(alg.pi[x] @ ub[s], vb[s])) for x in range(alg.dim_g)])
            assert np.max(np.abs(got[s] - want)) <= 1e-14 * np.max(np.abs(want))


def test_bracket_checks_its_product_against_the_budget(monkeypatch):
    # v @ _pi_rows has count(v) dim_g dim_v entries
    alg = build_case("I", n=1)
    u, v = as_rng(22).standard_normal((2, 10, alg.dim_v))
    entries = 10 * alg.dim_g * alg.dim_v
    monkeypatch.setenv("NILHARM_BUDGET", str(entries - 1))
    with pytest.raises(BudgetError, match="bracket-product entries"):
        alg.bracket(u, v)
    # a single v makes one dim_g x dim_v product, whatever the stack of u
    assert alg.bracket(u, v[0]).shape == (10, alg.dim_g)
    monkeypatch.setenv("NILHARM_BUDGET", str(entries))
    assert alg.bracket(u, v).shape == (10, alg.dim_g)


def test_bracket_antisymmetric():
    rng = as_rng(3)
    alg = build_case("III", k1=1, k2=1)
    u = rng.standard_normal(alg.dim_v)
    v = rng.standard_normal(alg.dim_v)
    assert np.allclose(alg.bracket(u, v), -alg.bracket(v, u), atol=1e-13)


def test_group_law():
    rng = as_rng(4)
    alg = build_case("VII", n=2)
    pts = [
        (rng.standard_normal(alg.dim_g), rng.standard_normal(alg.dim_v))
        for _ in range(3)
    ]
    a, b, c = pts
    # associativity
    left = alg.group_mult(alg.group_mult(a, b), c)
    right = alg.group_mult(a, alg.group_mult(b, c))
    assert np.allclose(left[0], right[0], atol=1e-12)
    assert np.allclose(left[1], right[1], atol=1e-12)
    # inverses: (z, v)^{-1} = (-z, -v), the identity is (0, 0)
    e = alg.group_mult(a, (-a[0], -a[1]))
    assert np.allclose(e[0], 0.0, atol=1e-12)
    assert np.allclose(e[1], 0.0, atol=1e-12)


def test_group_noncommutative_defect_is_bracket():
    # x y (y x)^{-1} has central part [vx, vy] and zero V part
    rng = as_rng(5)
    alg = build_case("I", n=1)
    x = (rng.standard_normal(alg.dim_g), rng.standard_normal(alg.dim_v))
    y = (rng.standard_normal(alg.dim_g), rng.standard_normal(alg.dim_v))
    xy = alg.group_mult(x, y)
    yx = alg.group_mult(y, x)
    d = alg.group_mult(xy, (-yx[0], -yx[1]))
    assert np.allclose(d[1], 0.0, atol=1e-12)
    assert np.allclose(d[0], alg.bracket(x[1], y[1]), atol=1e-12)


@pytest.mark.parametrize("case,params", [
    ("I", {"n": 2}), ("V", {"n": 3}), ("IX", {"n": 3}), ("VIII", {"k": 1, "n": 1}),
    ("II", {"n": 1}), ("II", {"n": 0}), ("III", {"k1": 1, "k2": 1}), ("III", {"k1": 0, "k2": 2}),
    ("IV", {"n": 1}), ("VI", {"n": 2}), ("VI", {"n": 4}), ("VI", {"n": 5}), ("VII", {"n": 2}),
    ("X", {"m": 3, "k": 1, "n": 1}),
])
def test_automorphisms_preserve_bracket(case, params):
    # Ad is derived from the V-matrices, so the bracket identity checks
    # the pair (g_mat, v_mat) against each other
    alg = build_case(case, **params)
    rng = as_rng(6)
    ks = sample_k_actions(alg, rng=rng, count=6)
    for k in ks:
        assert np.allclose(k.v_mat @ k.v_mat.T, np.eye(alg.dim_v), atol=1e-11)
        assert np.allclose(k.g_mat @ k.g_mat.T, np.eye(alg.dim_g), atol=1e-11)
        assert np.allclose(k.g_mat[alg.dim_gp:], np.eye(alg.dim_g)[alg.dim_gp:], rtol=0, atol=1e-12)
        u = rng.standard_normal(alg.dim_v)
        v = rng.standard_normal(alg.dim_v)
        lhs = k.g_mat @ alg.bracket(u, v)
        rhs = alg.bracket(k.v_mat @ u, k.v_mat @ v)
        assert np.allclose(lhs, rhs, atol=1e-10)
    # U commutes with pi, so the pairs (Ad(g), U pi(g)) pair like G'
    vmats = np.stack([k.v_mat for k in ks[:6]])
    y = rng.standard_normal(alg.dim_g)
    z = rng.standard_normal(alg.dim_g)
    expected = [y @ k.g_mat @ z for k in ks[:6]]
    assert np.allclose(alg.pair_forms(vmats, alg.kronecker_forms(y, z)), expected, rtol=0, atol=1e-12)


def test_k_actions_extend_gprime():
    # k-actions remain bracket automorphisms after composing the
    # g-fixing intertwiner
    alg = build_case("I", n=2)
    rng = as_rng(7)
    for k in sample_k_actions(alg, rng=rng, count=6):
        u = rng.standard_normal(alg.dim_v)
        v = rng.standard_normal(alg.dim_v)
        lhs = k.g_mat @ alg.bracket(u, v)
        rhs = alg.bracket(k.v_mat @ u, k.v_mat @ v)
        assert np.allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("case,params", [("I", {"n": 2}), ("VI", {"n": 3}), ("VIII", {"k": 1, "n": 1})])
def test_automorphism_stack_acts_like_its_elements(case, params):
    alg = build_case(case, **params)
    rng = as_rng(10)
    ks = sample_k_actions(alg, rng=rng, count=5)
    assert isinstance(ks, OrthAutomorphism)
    assert len(ks) == 5 and len(ks[1:3]) == 2
    assert ks.g_mat.shape == (5, alg.dim_g, alg.dim_g) and ks.v_mat.shape == (5, alg.dim_v, alg.dim_v)
    z, v, x = rng.standard_normal(alg.dim_g), rng.standard_normal(alg.dim_v), rng.standard_normal(alg.dim_g)
    zs, vs = ks.apply(z, v)
    xs = ks.apply_functional(x)
    elements = list(ks)
    assert len(elements) == 5
    for i, k in enumerate(elements):
        assert np.array_equal(k.g_mat, ks[i].g_mat) and np.array_equal(k.v_mat, ks[i].v_mat)
        assert np.array_equal(k.g_mat, ks.g_mat[i]) and np.array_equal(k.v_mat, ks.v_mat[i])
        kz, kv = k.apply(z, v)
        assert np.allclose(zs[i], kz, rtol=0, atol=1e-14)
        assert np.allclose(vs[i], kv, rtol=0, atol=1e-14)
        assert np.allclose(xs[i], k.apply_functional(x), rtol=0, atol=1e-14)
    assert np.array_equal(ks[-1].v_mat, elements[-1].v_mat)
    with pytest.raises(TypeError):
        len(ks[0])


def test_iteration_runs_over_the_pairs_of_a_stack_only():
    # one pair is not a stack: iterating it would otherwise fall back to
    # __getitem__ and yield "automorphisms" built from matrix rows
    alg = build_case("VII", n=1)
    ks = sample_k_actions(alg, 0, 3)
    pairs = [k for k in ks]
    assert len(pairs) == 3
    for i, k in enumerate(pairs):
        assert k.g_mat.shape == (1, 1) and k.v_mat.shape == (2, 2)
        assert np.array_equal(k.g_mat, ks.g_mat[i]) and np.array_equal(k.v_mat, ks.v_mat[i])
    with pytest.raises(TypeError, match="not a stack"):
        iter(ks[0])
    with pytest.raises(TypeError, match="not a stack"):
        list(ks[0])


@pytest.mark.parametrize("case,params", ALL_CASES)
def test_u_part_is_the_orthogonal_commutant(case, params):
    # U, the part of K that fixes g, is a stack of orthogonal maps of V
    # that commute with every pi(X); identities where the case draws none
    alg = build_case(case, **params)
    us = alg.ops.u_part_automorphisms(as_rng(11), 4)
    assert us.shape == (4, alg.dim_v, alg.dim_v)
    assert np.allclose(us @ np.swapaxes(us, 1, 2), np.eye(alg.dim_v), rtol=0, atol=1e-12)
    for p in alg.pi:
        assert np.allclose(us @ p, p @ us, rtol=0, atol=1e-12)


def test_one_k_sampler():
    # the old name draws K as the functional equation does: count pairs
    # (Ad(g), U pi(g)), no appended U rows
    assert sample_automorphisms is sample_k_actions


def test_split_join_center():
    alg = build_case("IX", n=3)
    rng = as_rng(8)
    x = rng.standard_normal(alg.dim_g)
    xp, zc = alg.split_center(x)
    assert xp.shape == (alg.dim_gp,)
    assert zc.shape == (alg.dim_c,)
    assert np.allclose(alg.join_center(xp, zc), x)


def test_invalid_parameters_raise():
    with pytest.raises((ValueError, KeyError)):
        build_case("I", n=0)
    with pytest.raises((ValueError, KeyError)):
        build_case("Z", n=1)


def _blocks(kind):
    rng = as_rng(9)
    if kind == "single":
        return [rng.standard_normal((3, 3))]
    if kind == "real":
        return [rng.standard_normal((d, d)) for d in (1, 3, 2)]
    if kind == "empty":
        return [np.zeros((0, 0)), rng.standard_normal((2, 2)), np.zeros((0, 0)),
                rng.standard_normal((3, 3)), np.zeros((0, 0))]
    if kind == "complex":
        return [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                np.arange(9).reshape(3, 3)]
    return [-np.zeros((2, 2)), np.eye(1, dtype=int)]


@pytest.mark.parametrize("kind", ["single", "real", "empty", "complex", "signed-zero"])
def test_block_diag_matches_scipy(kind):
    from scipy.linalg import block_diag as scipy_block_diag

    blocks = _blocks(kind)
    got = block_diag(*blocks)
    want = scipy_block_diag(*blocks)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


@pytest.mark.parametrize("case,params", CHAMBERED, ids=CHAMBERED_IDS)
def test_factor_bases_carry_the_bracket_of_g_prime(case, params):
    # [B(e_a), B(e_b)] = B(sum_c f_abc e_c) in every factor: the stacks
    # cover g' once, in coordinate order, as a Lie homomorphism
    alg = build_case(case, **params)
    d = alg.dim_gp
    assert sum(len(stack) for stack in alg.ops.factor_bases) == d
    f = structure_constants(alg)[:d, :d, :d]
    mats = [alg.ops.to_factor_mats(e) for e in np.eye(d)]
    worst = 0.0
    for a in range(d):
        for b in range(d):
            for ma, mb, mc in zip(mats[a], mats[b], alg.ops.to_factor_mats(f[a, b])):
                worst = max(worst, float(np.max(np.abs(ma @ mb - mb @ ma - mc))))
    assert worst < 1e-13


@pytest.mark.parametrize("case,params", CHAMBERED, ids=CHAMBERED_IDS)
def test_from_factor_mats_inverts_to_factor_mats(case, params):
    alg = build_case(case, **params)
    for xp in as_rng(20).standard_normal((10, alg.dim_gp)):
        back = alg.ops.from_factor_mats(alg.ops.to_factor_mats(xp))
        assert np.max(np.abs(back - xp)) <= 1e-14 * np.max(np.abs(xp))


BUDGET_CASES = ALL_CASES + [("III", {"k1": 0, "k2": 2}), ("V", {"n": 4}), ("VI", {"n": 5}),
                            ("VIII", {"k": 2, "n": 1}), ("IX", {"n": 4}), ("X", {"m": 4, "k": 2, "n": 1})]


@pytest.mark.parametrize("case,params", BUDGET_CASES,
                         ids=[c + "".join(str(v) for v in p.values()) for c, p in BUDGET_CASES])
def test_build_case_checks_pi_against_the_budget(monkeypatch, case, params):
    # each case sizes pi from its parameters before assembling it
    alg = build_case(case, **params)
    entries = alg.dim_g * alg.dim_v**2
    monkeypatch.setenv("NILHARM_BUDGET", str(entries - 1))
    with pytest.raises(BudgetError, match="entries of pi"):
        build_case(case, **params)
    monkeypatch.setenv("NILHARM_BUDGET", str(entries))
    assert build_case(case, **params).pi.size == entries
