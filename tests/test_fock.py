"""Truncated Fock matrices, matrix coefficients, component bookkeeping,
and the twisted convolution."""

import numpy as np
import pytest

from nilharm import fock
from nilharm.algebra import build_case
from nilharm.cases import CASES
from nilharm.numerics import QuadratureSpec, as_rng


def test_basis_counts_and_slices():
    b = fock.FockBasis(2, 4)
    assert b.count == 15  # C(2+4, 2)
    assert b.degree_slice(0) == slice(0, 1)
    assert b.degree_slice(2) == slice(3, 6)
    assert np.all(b.degrees[b.degree_slice(3)] == 3)


def test_norms_are_gaussian_moments():
    # ||z^m||^2 = m! (2/lam)^m under the unit-mass weight; check by
    # radial Gauss-Laguerre quadrature
    lam = 1.7
    b = fock.FockBasis(1, 6)
    from scipy.special import roots_genlaguerre

    x, w = roots_genlaguerre(40, 0.0)
    for deg in range(7):
        # E |z|^(2 deg) with |z|^2 ~ Exp(rate lam/2)
        val = np.sum(w * (2.0 * x / lam) ** deg) / np.sum(w)
        idx = b.index_of[(deg,)]
        assert abs(b.norms(lam)[idx] ** 2 - val) < 1e-10 * val


def test_pi_matrix_identity_at_origin():
    b = fock.FockBasis(2, 5)
    m = fock.pi_matrix(1.3, 0.0, np.zeros(2, dtype=complex), b)
    assert np.allclose(m, np.eye(b.count), atol=1e-14)


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
    t12 = t1 + t2 + 0.5 * fock.symplectic_form(np.array([z1]), np.array([z2]))
    m1 = fock.pi_matrix(lam, t1, np.array([z1]), b)
    m2 = fock.pi_matrix(lam, t2, np.array([z2]), b)
    m12 = fock.pi_matrix(lam, float(t12), np.array([z12]), b)
    sel = b.degrees <= 8
    prod = (m1 @ m2)[np.ix_(sel, sel)]
    assert np.max(np.abs(prod - m12[np.ix_(sel, sel)])) < 1e-9


def test_matrix_coefficient_and_grid_agree():
    lam = 0.9
    b = fock.FockBasis(2, 3)
    rng = as_rng(1)
    v = rng.standard_normal(4) * 0.6
    t = 0.25
    m = tuple(b.indices[4])
    r = tuple(b.indices[7])
    hm = np.zeros(b.count)
    hr = np.zeros(b.count)
    hm[4], hr[7] = 1.0, 1.0
    a = fock.matrix_coefficient(lam, hm, hr, t, v, b)
    g = fock.coefficient_grid(lam, b, m, r, np.array([t]), v.reshape(1, 4))
    assert abs(a - complex(g[0])) < 1e-13


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
    comps = fock.metaplectic_components("VII", 2, 3)
    dims = sorted(c.dim for c in comps)
    assert dims == [fock.homog_dim(2, d) for d in range(4)]


@pytest.mark.parametrize("case,params", [
    ("III", (1, 1)), ("III", (2, 1)), ("IV", 1), ("IV", 2), ("VIII", (1, 0)), ("VIII", (2, 1)),
    ("X", (3, 1, 1)),
])
def test_component_dimensions_sum_to_homog_dim(case, params):
    # the components of degree d split the degree-d polynomials on
    # C^(dim_v / 2), for the branches that list dimensions only
    names = CASES[case][1]
    dim_v = build_case(case, **dict(zip(names, np.atleast_1d(params).tolist()))).dim_v
    comps = fock.metaplectic_components(case, params, 5)
    for d in range(6):
        assert sum(c.dim for c in comps if c.degree == d) == fock.homog_dim(dim_v // 2, d)


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
        lhs = fock.symplectic_form(w, v)
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

    conv = fock.twisted_convolution(f, g, lam, quad)
    pts, wts = quad.grid()
    ws = (pts[:, 0] + 1j * pts[:, 1]).reshape(-1, 1)
    for probe in (np.array([[0.2 + 0.1j]]), np.array([[-0.4 + 0.5j]])):
        diff = probe - ws
        phase = np.exp(0.5j * lam * fock.symplectic_form(ws, diff))
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
    conv = fock.twisted_convolution(phi0, phi0, lam, quad)
    pts = np.array([[0.0 + 0.0j], [0.3 + 0.4j]])
    got = conv(pts)
    ref = (2 * np.pi / lam) * phi0(pts)
    assert np.allclose(got, ref, atol=1e-10)
