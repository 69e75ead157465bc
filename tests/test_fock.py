"""Truncated Fock matrices, matrix coefficients, component bookkeeping,
and the twisted convolution."""

from math import comb

import numpy as np
import pytest
from _oracles import fock_entry, symplectic_form, twisted_convolution
from hypothesis import given, settings
from hypothesis import strategies as st

from nilharm import fock
from nilharm.algebra import build_case
from nilharm.cases import CASES
from nilharm.numerics import BudgetError, QuadratureSpec, as_rng
from nilharm.spherical import SphericalIndex, psi_closed


def test_basis_counts_and_slices():
    b = fock.FockBasis(2, 4)
    assert b.count == 15  # C(2+4, 2)
    assert b.degree_slice(0) == slice(0, 1)
    assert b.degree_slice(2) == slice(3, 6)
    assert np.all(b.degrees[b.degree_slice(3)] == 3)


def test_pi_matrix_identity_at_origin():
    # exactly, also at degree 200 where x^(gap/2) and the norm ratio
    # meet 0 * log(0) in log space
    for n, D in ((2, 5), (1, 200)):
        b = fock.FockBasis(n, D)
        m = fock.pi_matrix(1.3, 0.0, np.zeros(n, dtype=complex), b)
        assert np.array_equal(m, np.eye(b.count))


# (3, 25) is left out: one of its matrices holds 3276^2 complex entries,
# 172 MB
@pytest.mark.parametrize("n,D", [(1, 0), (1, 5), (1, 25), (2, 0), (2, 5), (2, 25), (3, 0), (3, 5), (3, 12)])
@pytest.mark.parametrize("lam", [1.3, -0.7])
def test_pi_matrix_gathers_like_the_2d_fancy_index(n, D, lam):
    # the two 1-d takes against the 2-d fancy index they replaced, on
    # one point and on a stack: same entries, same product order
    basis = fock.FockBasis(n, D)
    ridx = basis.indices
    rng = as_rng(17)
    for t, v in ((0.4, rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                 (rng.standard_normal(3), rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)))):
        tabs = fock._entry_tables(abs(lam), v, D)
        want = np.exp(1j * abs(lam) * np.asarray(t))[..., None, None]
        want = want * tabs[..., 0, ridx[:, None, 0], ridx[None, :, 0]]
        for j in range(1, n):
            want *= tabs[..., j, ridx[:, None, j], ridx[None, :, j]]
        assert np.array_equal(fock.pi_matrix(lam, t, v, basis), np.conj(want) if lam < 0 else want)


# (a, b, D, v): the table at frequency lam = a * b (the pairs keep the
# test ids of the points), with dyadic v, so the float inputs are the
# exact rationals the oracle sums; |v| <= 6, x = |lam| |v|^2 / 2 up to 72
ORACLE_POINTS = [
    (1.0, 1.0, 12, (0.25, -0.5)),
    (2.0, 1.0, 60, (-1.25, 2.5)),
    (0.5, 1.0, 200, (3.5, -4.75)),
    (4.0, 1.0, 200, (0.0, -6.0)),
    (0.5, 1.0, 200, (0.0078125, 0.0)),
    (1.0, -2.0, 100, (-2.0, -3.25)),
    (-2.0, 1.0, 150, (1.5, 4.0)),
    (-0.5, -1.0, 200, (5.5, 2.0)),
]


@pytest.mark.parametrize("a,b,D,v", ORACLE_POINTS)
def test_pi_matrix_matches_exact_shift_series(a, b, D, v):
    # sampled entries of the closed Laguerre table against the shift
    # series summed in rationals; entries are bounded by 1
    lam, t = a * b, 0.375
    mat = fock.pi_matrix(lam, t, np.array([complex(*v)]), fock.FockBasis(1, D))
    assert np.all(np.isfinite(mat)) and np.max(np.abs(mat)) <= 1.0 + 1e-12
    rng = as_rng(D)
    pairs = {(0, 0), (0, D), (D, 0), (D, D), (D // 2, D // 2), (D - 1, D)}
    pairs |= {tuple(p) for p in rng.integers(0, D + 1, size=(20, 2))}
    phase = np.exp(1j * abs(lam) * t)
    worst = 0.0
    for r, m in sorted(pairs):
        want = phase * fock_entry(abs(lam), v, r, m)
        if lam < 0:
            want = np.conj(want)
        worst = max(worst, abs(mat[r, m] - want))
    assert worst < 1e-11


def test_pi_matrix_two_coordinates_match_exact_shift_series():
    # a two-coordinate entry is the product of the per-coordinate
    # entries, conjugated at a negative frequency
    lam, t, D = -1.5, -0.25, 30
    v = ((1.5, -0.75), (-2.0, 0.5))
    b = fock.FockBasis(2, D)
    mat = fock.pi_matrix(lam, t, np.array([complex(*c) for c in v]), b)
    rng = as_rng(5)
    for r, m in rng.integers(0, b.count, size=(25, 2)):
        want = np.exp(1j * abs(lam) * t)
        for j in range(2):
            want *= fock_entry(abs(lam), v[j], b.indices[r, j], b.indices[m, j])
        assert abs(mat[r, m] - np.conj(want)) < 1e-11


def test_pi_matrix_budget(monkeypatch):
    # the basis (351 monomials) fits, its 351^2 matrix does not
    monkeypatch.setenv("NILHARM_BUDGET", "1000")
    b = fock.FockBasis(2, 25)
    assert b.count == 351 == len(b.indices)
    with pytest.raises(BudgetError, match="Fock matrix entries"):
        fock.pi_matrix(1.0, 0.0, np.zeros(2, dtype=complex), b)
    # one 4 x 4 matrix fits, a stack of 100 of them does not
    small = fock.FockBasis(1, 3)
    assert fock.pi_matrix(1.0, 0.0, np.zeros(1, dtype=complex), small).shape == (4, 4)
    with pytest.raises(BudgetError, match="100 x max"):
        fock.pi_matrix(1.0, np.zeros(100), np.zeros((100, 1), dtype=complex), small)
    # at degree 0 the 3 entry tables per point outgrow the 1 x 1 matrix:
    # 400 points hold 400 matrix entries but 1200 table entries
    flat = fock.FockBasis(3, 0)
    with pytest.raises(BudgetError, match="1200 Fock matrix entries"):
        fock.pi_matrix(1.0, 0.0, np.zeros((400, 3), dtype=complex), flat)
    with pytest.raises(BudgetError, match="monomials"):
        fock.FockBasis(2, 50)
    # the component bases list the same monomials
    assert sum(c.dim for c in fock.metaplectic_components("VII", {"n": 2}, 25)) == 351
    with pytest.raises(BudgetError, match="component basis monomials"):
        fock.metaplectic_components("III", {"k1": 1, "k2": 1}, 8)


def test_pi_matrix_rejects_one_real_per_coordinate():
    # a real point of C^2 has 4 interleaved coordinates
    with pytest.raises(ValueError):
        fock.pi_matrix(1.0, 0.0, np.array([0.3, 0.4]), fock.FockBasis(2, 3))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("lam,t,v", [
    (NAN, 0.1, [0.3 + 0.2j]), (INF, 0.1, [0.3 + 0.2j]), (-INF, 0.1, [0.3 + 0.2j]),
    (1.2, NAN, [0.3 + 0.2j]), (1.2, INF, [0.3 + 0.2j]), (1.2, [0.1, NAN], [0.3 + 0.2j]),
    (1.2, 0.1, [complex(NAN, 0.2)]), (1.2, 0.1, [complex(0.3, INF)]), (1.2, 0.1, [INF, 0.2]),
])
def test_pi_matrix_rejects_non_finite_inputs(lam, t, v):
    # a non-finite frequency or point has no matrix, not an all-NaN one
    with pytest.raises(ValueError, match="finite"):
        fock.pi_matrix(lam, t, np.array(v), fock.FockBasis(1, 3))


@pytest.mark.parametrize("n,max_degree", [(1, 2.5), (1.5, 2), (1, 2.0)])
def test_fock_basis_rejects_non_integer_sizes(n, max_degree):
    # a non-integer size is refused, not truncated to degree 2
    with pytest.raises(ValueError, match="integers"):
        fock.FockBasis(n, max_degree)


@pytest.mark.parametrize("margin", [-1, 4, 9])
def test_truncation_defect_rejects_margin_outside_degrees(margin):
    # a margin above max_degree leaves an empty block, whose defect of 0
    # would claim unitarity with nothing checked
    v = np.array([0.5 - 0.3j])
    with pytest.raises(ValueError, match="margin"):
        fock.truncation_defect(1.0, 0.2, v, fock.FockBasis(1, 3), margin=margin)
    assert fock.truncation_defect(1.0, 0.2, v, fock.FockBasis(1, 3), margin=3) >= 0.0


def test_psi_numeric_budget(monkeypatch):
    # case I at n = 2 sums C(15, 3) = 455 degree-12 monomials in 4 variables
    monkeypatch.setenv("NILHARM_BUDGET", "100")
    with pytest.raises(BudgetError, match="455 degree-12 monomials"):
        fock.psi_numeric("I", 1.0, 12, 0.0, np.zeros(8))
    monkeypatch.setenv("NILHARM_BUDGET", "455")
    assert fock.psi_numeric("I", 1.0, 12, 0.0, np.zeros(8)) == 455.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 2),
    D=st.integers(0, 40),
    lam=st.floats(0.2, 4.0),
    lam_sign=st.sampled_from([-1.0, 1.0]),
    t=st.floats(-3.0, 3.0),
    radius=st.floats(0.0, 6.0),
    angle=st.floats(0.0, 2 * np.pi),
)
def test_pi_matrix_adjoint_is_inverse_element(n, D, lam, lam_sign, t, radius, angle):
    # (t, v)^-1 = (-t, -v), and pi is unitary: entrywise
    # pi(t, v)^dagger = pi(-t, -v), exactly on the truncated table
    b = fock.FockBasis(n, D)
    dirs = np.exp(1j * (angle + np.arange(n)))
    v = radius * dirs / np.sqrt(n)
    lam = lam_sign * lam
    lhs = fock.pi_matrix(lam, t, v, b).conj().T
    rhs = fock.pi_matrix(lam, -t, -v, b)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_pi_matrix_central_phase():
    b = fock.FockBasis(1, 3)
    v = np.array([0.4 + 0.2j])
    m0 = fock.pi_matrix(1.1, 0.0, v, b)
    m1 = fock.pi_matrix(1.1, 0.7, v, b)
    assert np.allclose(m1, np.exp(1j * 1.1 * 0.7) * m0, atol=1e-13)


def test_pi_matrix_unitary_on_safe_block():
    # truncation leaks only near the top degrees; on a fixed block
    # (degrees <= 5) the unitarity defect decays as headroom grows
    v = np.array([0.5 - 0.3j])
    defects = [
        fock.truncation_defect(1.0, 0.2, v, fock.FockBasis(1, dmax), margin=dmax - 5)
        for dmax in (8, 12, 16)
    ]
    assert defects[0] < 1e-2
    assert defects[1] < 1e-3 * defects[0]
    assert defects[2] < 1e-12


def test_pi_matrix_homomorphism_with_truncation_margin():
    # pi(p) pi(q) = pi(p q) on the low-degree block, up to leakage
    lam = 1.0
    b = fock.FockBasis(1, 18)
    rng = as_rng(0)
    t1, t2 = 0.3, -0.1
    v1 = (rng.standard_normal(2) * 0.4).view(float)
    v2 = (rng.standard_normal(2) * 0.4).view(float)
    z1, z2 = v1[0] + 1j * v1[1], v2[0] + 1j * v2[1]
    # group law on the Heisenberg model: central shift by the
    # symplectic form of the V parts
    z12 = z1 + z2
    t12 = t1 + t2 + 0.5 * symplectic_form(np.array([z1]), np.array([z2]))
    m1 = fock.pi_matrix(lam, t1, np.array([z1]), b)
    m2 = fock.pi_matrix(lam, t2, np.array([z2]), b)
    m12 = fock.pi_matrix(lam, float(t12), np.array([z12]), b)
    sel = b.degrees <= 8
    prod = (m1 @ m2)[np.ix_(sel, sel)]
    assert np.max(np.abs(prod - m12[np.ix_(sel, sel)])) < 1e-9


@pytest.mark.parametrize("lam", [0.9, -1.3])
@pytest.mark.parametrize("shape", [(5,), (2, 3)])
@pytest.mark.parametrize("per_point_t", [False, True])
@pytest.mark.parametrize("complex_v", [False, True])
def test_pi_matrix_stack_equals_its_points(lam, shape, per_point_t, complex_v):
    # a stack of points gives each point's matrix, bit for bit
    b = fock.FockBasis(2, 12)
    rng = as_rng(11)
    v = rng.standard_normal(shape + (4,)) * 1.5
    if complex_v:
        v = v[..., 0::2] + 1j * v[..., 1::2]
    t = rng.standard_normal(shape) if per_point_t else 0.4
    mats = fock.pi_matrix(lam, t, v, b)
    assert mats.shape == shape + (b.count, b.count)
    for p in np.ndindex(shape):
        assert np.array_equal(mats[p], fock.pi_matrix(lam, t[p] if per_point_t else t, v[p], b))


def test_pi_matrix_broadcasts_t_against_v():
    # t (2, 1) against v (3, n) gives a (2, 3) stack
    b = fock.FockBasis(1, 6)
    t = np.array([[0.3], [-1.1]])
    v = np.array([[0.2 + 0.1j], [-0.5j], [1.4 - 0.3j]])
    mats = fock.pi_matrix(-0.8, t, v, b)
    assert mats.shape == (2, 3, 7, 7)
    for i, k in np.ndindex(2, 3):
        assert np.array_equal(mats[i, k], fock.pi_matrix(-0.8, t[i, 0], v[k], b))


def test_negative_lambda_is_conjugate_model():
    b = fock.FockBasis(1, 4)
    v = np.array([0.3 + 0.7j])
    mpos = fock.pi_matrix(1.4, 0.2, v, b)
    mneg = fock.pi_matrix(-1.4, 0.2, v, b)
    assert np.allclose(mneg, np.conj(mpos), atol=1e-13)


def test_component_dimensions():
    assert fock.homog_dim(2, 3) == 4
    assert fock.homog_dim(3, 2) == 6
    # U(n) acting on degree-d polynomials is irreducible: one component
    comps = fock.metaplectic_components("VII", {"n": 2}, 3)
    dims = sorted(c.dim for c in comps)
    assert dims == [fock.homog_dim(2, d) for d in range(4)]


@pytest.mark.parametrize("case,params", [
    ("III", (1, 1)), ("III", (2, 1)), ("IV", 1), ("IV", 2), ("VIII", (1, 0)), ("VIII", (2, 1)),
    ("X", (3, 1, 1)), ("IV", 3), ("VIII", (3, 1)), ("X", (4, 2, 1)),
])
def test_component_dimensions_sum_to_homog_dim(case, params):
    # the components of degree d split the degree-d polynomials on
    # C^(dim_v / 2), also where they list Weyl dimensions only
    params = dict(zip(CASES[case].names, np.atleast_1d(params).tolist()))
    dim_v = build_case(case, **params).dim_v
    comps = fock.metaplectic_components(case, params, 5)
    for d in range(6):
        assert sum(c.dim for c in comps if c.degree == d) == fock.homog_dim(dim_v // 2, d)


@pytest.mark.parametrize("case,params,nvars", [
    ("IV", {"n": 1}, 4), ("VIII", {"k": 2, "n": 1}, 6), ("X", {"m": 3, "k": 1, "n": 1}, 7),
])
def test_component_budget_covers_every_case(monkeypatch, case, params, nvars):
    # C(dim_v / 2 + D, D) bounds the components of every case and is
    # checked before they are enumerated
    monkeypatch.setenv("NILHARM_BUDGET", str(comb(nvars + 6, 6)))
    assert fock.metaplectic_components(case, params, 6)
    with pytest.raises(BudgetError, match=rf"C\({nvars}\+7, 7\)"):
        fock.metaplectic_components(case, params, 7)


def test_component_parameters_are_those_of_build_case():
    # X and VIII take n = 0 when it is missing, as cases.CASES states
    for case, params in (("X", {"m": 3, "k": 1}), ("VIII", {"k": 2})):
        assert (fock.metaplectic_components(case, params, 4)
                == fock.metaplectic_components(case, {**params, "n": 0}, 4))
    with pytest.raises(ValueError, match="case IV needs the parameter 'n'"):
        fock.metaplectic_components("IV", {}, 2)


def test_component_degree_is_a_nonnegative_integer():
    for bad in (2.5, -1, 3.0):
        with pytest.raises(ValueError, match="nonnegative integer"):
            fock.metaplectic_components("IV", {"n": 1}, bad)
    assert fock.metaplectic_components("VII", {"n": 2}, np.int64(1))


def test_psi_numeric_is_component_trace():
    # partial trace of pi over a degree slice, at truncation 25
    lam = 1.2
    t = 0.15
    cases = [("VII", 1), ("VII", 2), ("I", 1)]
    rng = as_rng(2)
    for case, n in cases:
        nc = n if case == "VII" else 2 * n
        b = fock.FockBasis(nc, 25)
        v = rng.standard_normal(2 * nc) * 0.5
        m = fock.pi_matrix(lam, t, v, b)
        for j in range(4):
            tr = complex(np.trace(m[b.degree_slice(j), b.degree_slice(j)]))
            ref = fock.psi_numeric(case, lam, j, t, v)
            assert abs(tr - ref) < 1e-12


def test_psi_numeric_multiindex_cases():
    # V and VI take a monomial multi-index; the value at v = 0 is 1
    for case, nc, mono in [("V", 3, (1, 0, 2)), ("VI", 2, (2, 1))]:
        val = fock.psi_numeric(case, 0.8, mono, 0.0, np.zeros(2 * nc))
        assert abs(val - 1.0) < 1e-14


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("j", [0, 5, 20, 40, 60])
def test_psi_numeric_matches_closed_form_over_wide_range(lam, j):
    # VII(n=1) is one diagonal entry: check it against the exact shift
    # series too; j >= 40 at |v| = 6 was lost to cancellation in the
    # direct series sum
    t = 0.3
    for vnorm in (0.5, 2.0, 6.0):
        for v in ((vnorm, 0.0), (0.0, -vnorm), (0.6 * vnorm, 0.8 * vnorm)):
            got = fock.psi_numeric("VII", lam, j, t, np.array(v))
            closed = psi_closed(SphericalIndex("VII", lam, (j,), {"n": 1}), t, np.array(v))
            exact = np.exp(1j * lam * t) * fock_entry(lam, v, j, j)
            assert abs(got - closed) < 1e-12
            assert abs(got - exact) < 1e-11


@pytest.mark.parametrize("case,n", [("VII", 2), ("I", 1)])
def test_psi_numeric_matches_closed_form_at_high_degree(case, n):
    nc = n if case == "VII" else 2 * n
    rng = as_rng(12)
    for j in (20, 60):
        for vnorm in (2.0, 6.0):
            v = rng.standard_normal(2 * nc)
            v *= vnorm / np.linalg.norm(v)
            got = fock.psi_numeric(case, 1.5, j, -0.2, v)
            closed = psi_closed(SphericalIndex(case, 1.5, (j,), {"n": n}), -0.2, v)
            assert abs(got - closed) < 1e-12 * max(1.0, abs(closed))


@pytest.mark.parametrize("case,lam,j,t,nc", [
    ("VII", 1.1, 2.7, 0.1, 1),       # not the j = 2 value
    ("VII", 1.1, (1, 2), 0.1, 1),    # not the j = 1 value
    ("V", 1.1, (-1, 0, 0), 0.1, 3),  # not (0, 0, 0) by a wrapped row index
    ("VII", NAN, 1, 0.1, 1),
    ("I", -INF, 1, 0.1, 2),
    ("VII", 1.1, 1, NAN, 1),
    ("VI", 1.1, (1, 0), INF, 2),
])
def test_psi_numeric_rejects_bad_index_and_non_finite_inputs(case, lam, j, t, nc):
    # the index goes through the same check as SphericalIndex
    v = np.linspace(0.1, 0.6, 2 * nc)
    with pytest.raises(ValueError):
        fock.psi_numeric(case, lam, j, t, v)


def test_psi_numeric_coordinate_input():
    v = np.array([0.3, -0.4, 1.1, 0.2])
    z = v[0::2] + 1j * v[1::2]
    assert fock.psi_numeric("I", 0.9, 2, 0.1, v) == fock.psi_numeric("I", 0.9, 2, 0.1, z)
    with pytest.raises(ValueError):
        fock.psi_numeric("I", 0.9, 2, 0.1, v[:3])
    with pytest.raises(ValueError):
        fock.psi_numeric("V", 0.9, (1, 0), 0.1, v[:2])


def test_symplectic_form_matches_heisenberg_bracket():
    # B(w, v) = -Im sum w conj(v) equals the 3-dim Heisenberg bracket
    # of the interleaved real coordinates
    from nilharm.algebra import build_case

    alg = build_case("VII", n=1)
    rng = as_rng(3)
    for _ in range(10):
        a = rng.standard_normal(2)
        b2 = rng.standard_normal(2)
        w = np.array([a[0] + 1j * a[1]])
        v = np.array([b2[0] + 1j * b2[1]])
        lhs = symplectic_form(w, v)
        rhs = float(alg.bracket(a, b2)[0])
        assert abs(lhs - rhs) < 1e-13


def test_twisted_convolution_against_direct_sum():
    # compare the quadrature twisted convolution with a direct
    # evaluation of the same rule at two probe points
    lam = 1.1
    quad = QuadratureSpec.cube(60, 7.0, 2)

    def f(w):
        x = np.sum(np.abs(w) ** 2, axis=1)
        return np.exp(-0.4 * x)

    def g(w):
        x = np.sum(np.abs(w) ** 2, axis=1)
        return (1.0 - x) * np.exp(-0.3 * x)

    conv = twisted_convolution(f, g, lam, quad)
    pts, wts = quad.grid()
    ws = (pts[:, 0] + 1j * pts[:, 1]).reshape(-1, 1)
    for probe in (np.array([[0.2 + 0.1j]]), np.array([[-0.4 + 0.5j]])):
        diff = probe - ws
        phase = np.exp(0.5j * lam * symplectic_form(ws, diff))
        direct = np.sum(wts * f(ws) * g(diff) * phase)
        got = conv(probe)[0]
        assert abs(got - direct) < 1e-12


def test_twisted_convolution_laguerre_projection():
    # phi_0 x_lam phi_0 = (2 pi / lam) phi_0 for the ground Laguerre
    # function on C
    lam = 2.0

    def phi0(w):
        x = lam * np.sum(np.abs(w) ** 2, axis=1) / 2.0
        return np.exp(-x / 2.0)

    quad = QuadratureSpec.cube(80, 8.0, 2)
    conv = twisted_convolution(phi0, phi0, lam, quad)
    pts = np.array([[0.0 + 0.0j], [0.3 + 0.4j]])
    got = conv(pts)
    ref = (2 * np.pi / lam) * phi0(pts)
    assert np.allclose(got, ref, atol=1e-10)
