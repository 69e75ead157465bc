"""Case assembly, the bracket identity, group law, and automorphisms."""

import numpy as np
import pytest

from nilharm.algebra import (
    CaseSpec,
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


def test_build_case_accepts_spec_and_json():
    a = build_case("V", n=3)
    b = build_case(CaseSpec("V", {"n": 3}))
    c = build_case({"case": "V", "n": 3})
    assert a.spec == b.spec == c.spec
    assert a.spec.to_json() == {"case": "V", "n": 3}


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
    # inverses
    e = alg.group_mult(a, alg.group_inverse(a))
    assert np.allclose(e[0], 0.0, atol=1e-12)
    assert np.allclose(e[1], 0.0, atol=1e-12)
    ez, ev = alg.identity_point()
    assert np.allclose(ez, 0.0) and np.allclose(ev, 0.0)


def test_group_noncommutative_defect_is_bracket():
    # x y (y x)^{-1} has central part [vx, vy] and zero V part
    rng = as_rng(5)
    alg = build_case("I", n=1)
    x = (rng.standard_normal(alg.dim_g), rng.standard_normal(alg.dim_v))
    y = (rng.standard_normal(alg.dim_g), rng.standard_normal(alg.dim_v))
    xy = alg.group_mult(x, y)
    yx = alg.group_mult(y, x)
    d = alg.group_mult(xy, alg.group_inverse(yx))
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
    ks = sample_automorphisms(alg, rng=rng, count=6)
    for k in ks:
        assert np.allclose(k.v_mat @ k.v_mat.T, np.eye(alg.dim_v), atol=1e-11)
        assert np.allclose(k.g_mat @ k.g_mat.T, np.eye(alg.dim_g), atol=1e-11)
        assert np.allclose(k.g_mat[alg.dim_gp:], np.eye(alg.dim_g)[alg.dim_gp:], rtol=0, atol=1e-12)
        u = rng.standard_normal(alg.dim_v)
        v = rng.standard_normal(alg.dim_v)
        lhs = k.g_mat @ alg.bracket(u, v)
        rhs = alg.bracket(k.v_mat @ u, k.v_mat @ v)
        assert np.allclose(lhs, rhs, atol=1e-10)
    # the first count elements are the G' pairs (Ad(g), pi(g))
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


@pytest.mark.parametrize("case,params,u_rows", [
    ("I", {"n": 2}, 2), ("VII", {"n": 2}, 2), ("VIII", {"k": 1, "n": 1}, 2), ("V", {"n": 3}, 2),
    ("VI", {"n": 3}, 0), ("IV", {"n": 1}, 0),
])
def test_automorphism_stack_appends_u_part_with_identity_on_g(case, params, u_rows):
    # G' pairs first, then max(2, count // 4) intertwiners that fix g
    alg = build_case(case, **params)
    ks = sample_automorphisms(alg, rng=as_rng(11), count=8)
    assert len(ks) == 8 + u_rows
    assert np.array_equal(ks.g_mat[8:], np.broadcast_to(np.eye(alg.dim_g), (u_rows, alg.dim_g, alg.dim_g)))
    assert len(sample_automorphisms(alg, rng=as_rng(11), count=8, include_u=False)) == 8


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
