"""Case assembly, the bracket identity, group law, and automorphisms."""

import numpy as np
import pytest

from nilharm.algebra import (
    OrthAutomorphism,
    build_case,
    check_structure,
    sample_automorphisms,
    sample_k_actions,
)
from nilharm.cases import block_diag
from nilharm.numerics import as_rng

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
    assert np.allclose(alg.orbit_pairing(vmats, y, z), expected, rtol=0, atol=1e-12)


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
    f = alg.structure_constants[:d, :d, :d]
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
