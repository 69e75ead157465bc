"""Tests for closed-form spherical functions, orbit averages, canonical
invariant polynomials, and the functional equation."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from _oracles import (
    gamma_moments,
    gauss_laguerre_moments,
    gram_schmidt_invariants,
    laguerre_product_coefficient,
)
from test_acceptance import CASES as ACCEPTANCE_CASES, DEGENERATE_CASES
from scipy.special import comb, eval_genlaguerre, factorial, roots_genlaguerre

from nilharm import build_case, fock, spherical
from nilharm.algebra import LauretAlgebra, OrthAutomorphism, sample_k_actions
from nilharm.numerics import BudgetError, as_rng, sphere_character
from nilharm.spherical import (
    SphericalIndex,
    canonical_polynomials,
    functional_equation_residual,
    phi_caseI_closed,
    phi_orbit,
    psi_closed,
    spherical_index,
)


def test_spherical_index_from_functional():
    alg = build_case("I", n=1)
    x = np.array([1.2, 0.0, 0.5])
    idx = spherical_index(alg, x, 2)
    assert idx.case == "I"
    assert idx.index == (2,)
    assert abs(idx.lam - np.linalg.norm(x)) < 1e-14
    assert idx.functional is not None
    with pytest.raises(ValueError):
        SphericalIndex("VII", 0.0, (0,))


def test_psi_closed_matches_numeric_trace():
    # closed Laguerre forms against the exact Fock partial traces
    rng = as_rng(11)
    for case, n in [("VII", 1), ("VII", 2), ("I", 1)]:
        nc = n if case == "VII" else 2 * n
        for lam in (0.6, -1.3):
            t = float(rng.standard_normal())
            v = rng.standard_normal(2 * nc) * 0.7
            for j in range(4):
                idx = SphericalIndex(case, lam, (j,), {"n": n})
                got = psi_closed(idx, t, v)
                ref = fock.psi_numeric(case, lam, j, t, v)
                assert abs(got - ref) < 1e-12


def test_psi_closed_multiindex_matches_numeric():
    rng = as_rng(12)
    # VI(n) acts on R^n, so a 2-entry index needs n = 4
    for case, nc, params, mono in [("V", 3, {"n": 3}, (1, 0, 2)), ("VI", 2, {"n": 4}, (2, 1))]:
        t = 0.3
        v = rng.standard_normal(2 * nc) * 0.6
        idx = SphericalIndex(case, 0.9, mono, params)
        got = psi_closed(idx, t, v)
        ref = fock.psi_numeric(case, 0.9, mono, t, v)
        assert abs(got - ref) < 1e-12


def test_psi_closed_identity_values_are_dimensions():
    # value at the group identity equals the component dimension
    for n in (1, 2):
        for j in range(4):
            idx = SphericalIndex("VII", 1.0, (j,), {"n": n})
            val = psi_closed(idx, 0.0, np.zeros(2 * n))
            assert abs(val - fock.homog_dim(n, j)) < 1e-12
    for j in range(4):
        idx = SphericalIndex("I", 1.0, (j,), {"n": 1})
        val = psi_closed(idx, 0.0, np.zeros(4))
        assert abs(val - fock.homog_dim(2, j)) < 1e-12
    idx = SphericalIndex("V", 1.0, (2, 0, 1), {"n": 3})
    assert abs(psi_closed(idx, 0.0, np.zeros(6)) - 1.0) < 1e-12


def test_psi_closed_viii_origin_and_argument_checks():
    idx = SphericalIndex("VIII", 1.0, (0, 0, 0, 0), {"k": 1, "n": 1})
    assert abs(psi_closed(idx, 0.0, np.zeros(8)) - 1.0) < 1e-12
    # r + s > 0 components still evaluate to 1 at the origin before the
    # central Laguerre dimension factor
    idx2 = SphericalIndex("VIII", 1.0, (1, 1, 0, 2), {"k": 1, "n": 1})
    val = psi_closed(idx2, 0.0, np.zeros(8))
    assert abs(val - comb(2 + 1, 2)) < 1e-12
    with pytest.raises(NotImplementedError):
        psi_closed(SphericalIndex("VIII", 1.0, (0, 0, 0, 0), {"k": 2, "n": 0}), 0.0, np.zeros(16))
    with pytest.raises(ValueError):
        psi_closed(SphericalIndex("VIII", 1.0, (0, 0, 1, 0), {"k": 1, "n": 1}), 0.0, np.zeros(8))
    with pytest.raises(ValueError):
        psi_closed(SphericalIndex("VIII", 1.0, (0, 0, 0, 1), {"k": 1, "n": 0}), 0.0, np.zeros(4))


def test_psi_closed_viii_is_a_laguerre_product():
    # VIII (k = 1) is e^{-lam |v|^2 / 4} L_r(lam |u1|^2 / 2) L_s(lam |u2|^2 / 2)
    # L_l^(2n-1)(lam |w|^2 / 2), also at degrees where a sum over
    # monomials cancels badly
    rng = as_rng(21)
    for lam, index, n in [(1.0, (20, 0, 0, 0), 0), (1.0, (10, 12, 0, 0), 0),
                          (0.8, (3, 5, 0, 4), 1)]:
        r, s, _, l = index
        idx = SphericalIndex("VIII", lam, index, {"k": 1, "n": n})
        for trial in range(4):
            v = rng.standard_normal(4 + 4 * n)
            # the first point puts |u1|^2 = 6 on the coordinate axis
            if trial == 0:
                v[:] = 0.0
                v[0] = np.sqrt(6.0)
            sq = v[0::2] ** 2 + v[1::2] ** 2
            # n = 0 has no w block
            w_factor = eval_genlaguerre(l, 2 * n - 1, lam * sq[2:].sum() / 2) if n else 1.0
            want = (eval_genlaguerre(r, 0, lam * sq[0] / 2) * eval_genlaguerre(s, 0, lam * sq[1] / 2)
                    * w_factor * np.exp(-lam * sq.sum() / 4))
            got = psi_closed(idx, 0.0, v)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (index, trial, got, want)


def test_closed_forms_reject_wrong_length_v():
    # a v of the wrong dimension is an error, not a value of some other
    # case; the VIII k != 1 rejection above comes before this check
    iii = SphericalIndex("III", 1.0, (1, 1, 0, 2), {"k1": 1, "k2": 1})
    viii = SphericalIndex("VIII", 1.0, (1, 1, 0, 2), {"k": 1, "n": 1})
    # dim_v / 2 reals are as many reals as complex coordinates, not a
    # point of V: VII(2) at (0.3, 0.4) is not its value at (0.3, 0, 0.4, 0)
    vii = SphericalIndex("VII", 1.0, (1,), {"n": 2})
    v3 = SphericalIndex("V", 1.0, (1, 0, 2), {"n": 3})
    for idx, bad in [(iii, 10), (iii, 20), (viii, 5), (iii, 6), (vii, 2), (v3, 3)]:
        with pytest.raises(ValueError):
            psi_closed(idx, 0.0, np.full(bad, 0.1))
    for bad in (6, 2, 0):
        with pytest.raises(ValueError):
            phi_caseI_closed(1.0, 1, np.zeros(3), np.full(bad, 0.1))
    # case I has dim g = 3 for every n: a z of another length is an
    # error, not the sphere average of its norm
    for bad in (1, 5, 12):
        with pytest.raises(ValueError, match="z in R"):
            phi_caseI_closed(1.0, 1, np.full(bad, 0.1), np.full(8, 0.1))
    # the accepted forms: dim_v reals, or the complex coordinates
    v = np.linspace(-0.5, 0.6, 12)
    zc = v[0::2] + 1j * v[1::2]
    assert abs(psi_closed(iii, 0.2, v) - psi_closed(iii, 0.2, zc)) < 1e-15
    assert np.isfinite(phi_caseI_closed(1.0, 1, np.zeros(3), v[:8]))


def _assert_closed_psi_is_fock_trace(case, params, nc, seed, D=5):
    # psi over a component is its dimension at the identity and, at a
    # random point, the sum of the diagonal Fock entries over its basis
    comps = fock.metaplectic_components(case, params, D)
    basis = fock.FockBasis(nc, D)
    rng = as_rng(seed)
    for lam in (0.8, -1.3):
        t = float(rng.standard_normal())
        v = 0.6 * rng.standard_normal(2 * nc)
        diag = np.diag(fock.pi_matrix(lam, t, v, basis))
        for comp in comps:
            assert len(comp.basis) == comp.dim
            assert all(sum(m) == comp.degree for m in comp.basis)
            idx = SphericalIndex(case, lam, comp.index, params)
            assert abs(psi_closed(idx, 0.0, np.zeros(2 * nc)) - comp.dim) < 1e-12 * comp.dim
            trace = sum(diag[basis.index_of[m]] for m in comp.basis)
            assert abs(psi_closed(idx, t, v) - trace) < 1e-12 * comp.dim


# the square-integrable tested instances whose K_x-types are run products
RUN_CASES = [(c, p) for c, p in ACCEPTANCE_CASES
             if (c, p) not in DEGENERATE_CASES and fock.kx_blocks(c, p) is not None]


@pytest.mark.parametrize("case,params", RUN_CASES,
                         ids=[f"{c}-{'-'.join(map(str, p.values()))}" for c, p in RUN_CASES])
def test_kx_blocks_serve_components_and_closed_psi(case, params):
    # one table: the runs tile V, the components of each degree split the
    # polynomials of that degree, and each component's closed psi is the
    # trace of pi over its basis
    dim_v = build_case(case, **params).dim_v
    assert 2 * sum(fock.kx_blocks(case, params)) == dim_v
    comps = fock.metaplectic_components(case, params, 4)
    for d in range(5):
        assert sum(c.dim for c in comps if c.degree == d) == fock.homog_dim(dim_v // 2, d)
    _assert_closed_psi_is_fock_trace(case, params, dim_v // 2, 61, D=4)


@pytest.mark.parametrize("case,params,index", [
    ("V", {"n": 3}, (1, 0)), ("VI", {"n": 2}, (2, 1)), ("IX", {"n": 3}, (1,)),
])
def test_closed_psi_rejects_an_index_off_the_runs(case, params, index):
    # V(3) and IX(3) have three runs, VI(2) one: the runs come from the
    # parameters, so a v sized to the index is not read as a point of
    # some smaller instance
    with pytest.raises(ValueError, match="one degree per run"):
        psi_closed(SphericalIndex(case, 1.0, index, params), 0.0, np.zeros(2 * len(index)))


@pytest.mark.parametrize("k1,k2", [(1, 1), (0, 1), (1, 0), (2, 1)])
def test_psi_closed_iii_matches_fock_traces(k1, k2):
    # runs C^(2 k1), C, C, C^(2 k2); an empty outer run admits degree 0 only
    _assert_closed_psi_is_fock_trace("III", {"k1": k1, "k2": k2}, 2 * k1 + 2 + 2 * k2,
                                     31 + 10 * k1 + k2)


def test_psi_closed_ix_matches_fock_traces():
    # generic IX functionals: one monomial per multi-index, as for V
    _assert_closed_psi_is_fock_trace("IX", {"n": 3}, 3, 41)


ORBIT_WIRING = [
    ("I", {"n": 1}, (2,)),
    ("VII", {"n": 2}, (1,)),
    ("V", {"n": 3}, (1, 0, 2)),
    ("IX", {"n": 3}, (0, 2, 1)),
    ("VI", {"n": 4}, (1, 2)),
    ("III", {"k1": 1, "k2": 1}, (1, 1, 0, 2)),
    ("VIII", {"k": 1, "n": 1}, (1, 1, 0, 2)),
]


@pytest.mark.parametrize("case,params,index", ORBIT_WIRING, ids=[c[0] for c in ORBIT_WIRING])
def test_phi_orbit_is_mean_of_psi_closed_over_vmats(case, params, index):
    # at z = 0 the orbit integrand is the closed psi at pi(g) v, so the
    # Monte Carlo value and its stderr are those of the same draws
    alg = build_case(case, **params)
    rng = as_rng(51)
    idx = spherical_index(alg, rng.standard_normal(alg.dim_g), index)
    v = 0.7 * rng.standard_normal(alg.dim_v)
    samples, seed = 64, 9
    w = alg.ops.sample_vmats(as_rng(seed), samples) @ v
    ref = np.array([psi_closed(idx, 0.0, wi) for wi in w])
    got = phi_orbit(idx, np.zeros(alg.dim_g), v, samples=samples, seed=seed)
    assert abs(got.value - np.mean(ref)) < 1e-12
    assert abs(got.stderr - np.sqrt(np.sum(np.abs(ref - np.mean(ref)) ** 2)) / samples) < 1e-12


def test_phi_orbit_vii_is_exact():
    # the U(n) orbit fixes |v| and the central pairing, so the orbit
    # average collapses to the closed form with vanishing spread
    alg = build_case("VII", n=2)
    idx = spherical_index(alg, [1.4], 2)
    rng = as_rng(3)
    z = rng.standard_normal(1)
    v = rng.standard_normal(4) * 0.8
    got = phi_orbit(idx, z, v, samples=200, seed=7)
    t = float(idx.functional.y @ z)
    ref = psi_closed(idx, t, v)
    assert got.stderr < 1e-10
    assert abs(got.value - ref) < 1e-10


def test_phi_orbit_caseI_matches_closed_form():
    alg = build_case("I", n=1)
    rng = as_rng(21)
    x = rng.standard_normal(3)
    x *= 1.1 / np.linalg.norm(x)
    for j in (0, 1, 2):
        idx = spherical_index(alg, x, j)
        for _ in range(3):
            z = rng.standard_normal(3) * 0.6
            v = rng.standard_normal(4) * 0.7
            mc = phi_orbit(idx, z, v, samples=60000, seed=int(rng.integers(10**6)))
            ref = phi_caseI_closed(idx.lam, j, z, v)
            assert abs(mc.value - ref) <= 3.5 * mc.stderr
            assert mc.stderr < 0.02


def test_phi_orbit_requires_square_integrable():
    alg = build_case("II", n=1)
    idx = spherical_index(alg, np.array([0.4, -0.3, 0.8]), 0)
    with pytest.raises(ValueError):
        phi_orbit(idx, np.zeros(3), np.zeros(alg.dim_v), samples=10)


def _laguerre_ratio_coeff(j, alpha, k, lam):
    # coefficient of s^k in L_j^alpha(lam s / 2) / L_j^alpha(0)
    num = (-1.0) ** k * comb(j + alpha, j - k) * (lam / 2.0) ** k / factorial(k)
    return float(num / comb(j + alpha, j))


def test_canonical_polynomials_vii_are_laguerre():
    # Gram-Schmidt against the Gaussian weight reproduces the
    # normalized Laguerre polynomials L_j^(n-1)(lam s / 2)
    for n in (1, 2, 3):
        for lam in (0.7, 2.0):
            qs = canonical_polynomials("VII", {"n": n}, 5, lam=lam)
            assert len(qs) == 6
            for j, q in enumerate(qs):
                assert q.leading == (j,)
                for k in range(j + 1):
                    want = _laguerre_ratio_coeff(j, n - 1, k, lam)
                    assert abs(q.coefficient((k,)) - want) < 1e-8 * max(1.0, abs(want))


def test_canonical_polynomials_viii_orthogonal():
    # two block-norm generators, independent Gamma laws; check
    # orthogonality by quadrature and normalization at the origin
    lam = 1.4
    qs = canonical_polynomials("VIII", {"k": 1, "n": 0}, 3, lam=lam)
    x, w = roots_genlaguerre(40, 0.0)
    w = w / w.sum()
    u = 2.0 * x / lam
    uu, ww_ = np.meshgrid(u, u, indexing="ij")
    wts = np.outer(w, w).ravel()
    pts = np.stack([uu.ravel(), ww_.ravel()], axis=-1)
    vals = np.array([q.evaluate(pts) for q in qs])
    gram = (vals * wts) @ vals.T
    norms = np.sqrt(np.diag(gram))
    off = gram / np.outer(norms, norms) - np.eye(len(qs))
    assert np.max(np.abs(off)) < 1e-10
    assert qs[0].coeffs == (((0, 0), 1.0),)
    for q in qs:
        assert abs(q.evaluate(np.zeros((1, 2))) - 1.0) < 1e-14


@pytest.mark.parametrize("alpha", [0, 1, 3])
@pytest.mark.parametrize("lam", [0.6, 1.0, 2.5])
def test_gamma_moments_match_gauss_laguerre(alpha, lam):
    got = gamma_moments(alpha, lam, 12)
    want = gauss_laguerre_moments(alpha, lam, 12)
    assert got.shape == (13,) and got[0] == 1.0
    assert np.max(np.abs(got / want - 1.0)) < 1e-13


# generator radial exponents per case, stated independently of the library
_ALPHAS = {"VII": lambda p: (p["n"] - 1,), "VIII": lambda p: (0, 0),
           "IV": lambda p: (2 * p["n"] - 1,) * 2}


_GS_CASES = pytest.mark.parametrize("case,params,degree", [
    ("VII", {"n": 1}, 4), ("VII", {"n": 3}, 4),
    ("VIII", {"k": 1, "n": 0}, 4), ("VIII", {"k": 1, "n": 2}, 4),
    ("IV", {"n": 1}, 3), ("IV", {"n": 2}, 3),
])


def _assert_matches_gram_schmidt(case, params, degree, lam, moments):
    # terms near the 1e-14 cut-off can appear on one route only, so
    # compare dense vectors
    got_polys = canonical_polynomials(case, params, degree, lam=lam)
    ref = gram_schmidt_invariants(_ALPHAS[case](params), lam, degree, moments)
    assert len(got_polys) == len(ref)
    for q, (lead, b) in zip(got_polys, ref):
        assert q.leading == lead and q.alphas == _ALPHAS[case](params)
        a = dict(q.coeffs)
        keys = sorted(set(a) | set(b))
        got = np.array([a.get(k, 0.0) for k in keys])
        want = np.array([b.get(k, 0.0) for k in keys])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@_GS_CASES
@pytest.mark.parametrize("lam", [0.7, 1.9])
def test_canonical_polynomials_match_quadrature_moments(case, params, degree, lam):
    # the closed-form products against classical Gram-Schmidt on
    # Gauss-Laguerre moments; Gram-Schmidt amplifies last-bit moment
    # differences with the degree (VII at degree 5 and IV at degree 4
    # reach 5e-13 and 1e-12)
    _assert_matches_gram_schmidt(case, params, degree, lam, gauss_laguerre_moments)


@_GS_CASES
@pytest.mark.parametrize("lam", [0.7, 1.9])
def test_canonical_polynomials_match_exact_moment_gram_schmidt(case, params, degree, lam):
    _assert_matches_gram_schmidt(case, params, degree, lam, gamma_moments)


@pytest.mark.parametrize("case,params", [("VII", {"n": 3}), ("IV", {"n": 1}), ("VIII", {"k": 1})])
@pytest.mark.parametrize("lam", [0.7, 1.9])
def test_canonical_polynomials_exact_to_degree_20(case, params, lam):
    # every coefficient against the exact Laguerre products in rationals;
    # only coefficients below the 1e-14 cut-off may be missing
    alphas = _ALPHAS[case](params)
    qs = canonical_polynomials(case, params, 20, lam=lam)
    assert len(qs) == comb(20 + len(alphas), 20, exact=True)
    for q in qs:
        got = dict(q.coeffs)
        assert got[q.leading] != 0.0
        for expo in itertools.product(*(range(a + 1) for a in q.leading)):
            want = laguerre_product_coefficient(q.leading, expo, alphas, lam)
            if expo not in got:
                assert abs(want) <= 1e-14
                continue
            assert abs(Fraction(got.pop(expo)) - want) <= 1e-14 * abs(want)
        assert not got, f"coefficients outside the leading box: {got}"


def test_canonical_polynomials_budget(monkeypatch):
    # IV has two generators: C(D + 4, 4) coefficients, 635,376 at degree
    # 60 and 10,626 at degree 20
    monkeypatch.setenv("NILHARM_BUDGET", "100000")
    with pytest.raises(BudgetError, match="canonical-polynomial coefficients"):
        canonical_polynomials("IV", {"n": 1}, 60)
    qs = canonical_polynomials("IV", {"n": 1}, 20)
    assert len(qs) == comb(22, 2, exact=True)
    assert sum(int(np.prod(np.add(q.leading, 1))) for q in qs) == comb(24, 4, exact=True)


def test_canonical_polynomials_iv_orthogonal_at_degree_8():
    # tensor Gauss-Laguerre rule in the two block norms (alpha = 1),
    # exact for the degree-16 products of the Gram matrix
    lam = 1.3
    qs = canonical_polynomials("IV", {"n": 1}, 8, lam=lam)
    assert len(qs) == 45
    x, w = roots_genlaguerre(12, 1.0)
    s = 2.0 * x / lam
    pts = np.stack(np.meshgrid(s, s, indexing="ij"), axis=-1)
    wts = np.outer(w, w) / w.sum() ** 2
    vals = np.array([q.evaluate(pts) for q in qs])
    gram = np.einsum("aij,bij,ij->ab", vals, vals, wts)
    norms = np.sqrt(np.diag(gram))
    off = gram / np.outer(norms, norms) - np.eye(len(qs))
    assert np.max(np.abs(off)) < 1e-10


@pytest.mark.parametrize("case,alpha", [("VII", 0), ("IV", 1)])
def test_invariant_polynomial_evaluate_at_degree_20(case, alpha):
    # coeffs drops the coefficients below 1e-14, which s^k multiplies
    # back up: the monomial sum of VII's is off by 33 at s = 10 (value 2.02)
    qs = [q for q in canonical_polynomials(case, {"n": 1}, 20) if q.degree == 20]
    s = np.array([5.0, 10.0, 20.0])
    pts = np.stack([s, s[::-1]], axis=-1)[:, : len(qs[0].alphas)]
    for q in qs:
        want = np.prod([eval_genlaguerre(a, alpha, pts[:, g] / 2.0) / eval_genlaguerre(a, alpha, 0.0)
                        for g, a in enumerate(q.leading)], axis=0)
        got = q.evaluate(pts)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want)), (q.leading, got, want)


def test_invariant_polynomial_evaluate_keeps_leading_axes():
    q = canonical_polynomials("IV", {"n": 1}, 2, lam=1.0)[4]
    assert q.leading == (1, 1)
    pts = np.linspace(0.1, 2.0, 12).reshape(2, 3, 2)
    got = q.evaluate(pts)
    assert got.shape == (2, 3)
    want = (1.0 - pts[..., 0] / 4.0) * (1.0 - pts[..., 1] / 4.0)
    assert np.max(np.abs(got - want)) < 1e-15
    one = q.evaluate(np.ones((1, 2)))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert isinstance(q.evaluate([1.0, 2.0]), float)
    with pytest.raises(ValueError):
        q.evaluate(np.ones((4, 3)))


def test_viii_v_factor_on_a_stack_matches_pointwise():
    # the VIII kernel is vectorized over leading axes of v, including
    # the canonical-polynomial factor
    params = {"k": 1, "n": 1}
    lam = 1.1
    index = (1, 2, 0, 1)
    v = 0.6 * as_rng(5).standard_normal((2, 3, 8))
    got = spherical._v_factor("VIII", params, index, lam, v, 1.0)
    assert got.shape == (2, 3)
    idx = SphericalIndex("VIII", lam, index, params)
    want = np.array([[psi_closed(idx, 0.0, p) for p in row] for row in v])
    assert np.max(np.abs(got - want)) < 1e-14


def test_canonical_polynomials_rejects_unknown():
    with pytest.raises(NotImplementedError):
        canonical_polynomials("IX", {"n": 3}, 2)
    with pytest.raises(NotImplementedError):
        canonical_polynomials("VIII", {"k": 2, "n": 0}, 2)
    with pytest.raises(ValueError):
        canonical_polynomials("VII", {"n": 1}, 2, lam=0.0)
    with pytest.raises(ValueError):
        canonical_polynomials("VII", {"n": 1}, -1)
    with pytest.raises(ValueError):
        canonical_polynomials("VII", {"n": 1}, 2.5)


def test_monte_carlo_sizes_without_an_error_bar_are_rejected():
    alg = build_case("IX", n=3)
    idx = spherical_index(alg, np.array([0.3, -0.2, 0.9, 0.1, 0.4, -0.5, 0.2, 0.7, -0.1]), (1, 0, 1))
    z, v = np.zeros(alg.dim_g), 0.5 * np.ones(alg.dim_v)
    for samples in (1, 0, -3):
        with pytest.raises(ValueError, match="samples >= 2"):
            phi_orbit(idx, z, v, samples=samples)
    assert phi_orbit(idx, z, v, samples=2).stderr > 0.0
    alg7 = build_case("VII", n=1)
    point = (np.zeros(1), np.ones(2))
    empty = OrthAutomorphism(np.zeros((0, 1, 1)), np.zeros((0, 2, 2)))
    with pytest.raises(ValueError, match="at least one K-action"):
        functional_equation_residual(lambda p: 1.0, alg7, point, point, empty)


def test_functional_equation_maps_the_stack_once(monkeypatch):
    # one group_mult for the whole stack, and the report equals, bit for
    # bit, the average over a loop of per-element products
    alg = build_case("I", n=1)
    lam, j = 1.2, 1

    def phi(point):
        return phi_caseI_closed(lam, j, point[0], point[1])

    rng = as_rng(17)
    xp = (rng.standard_normal(3) * 0.4, rng.standard_normal(4) * 0.6)
    yp = (rng.standard_normal(3) * 0.4, rng.standard_normal(4) * 0.6)
    ks = sample_k_actions(alg, as_rng(18), count=500)
    pe = complex(phi((np.zeros(3), np.zeros(4))))
    vals = np.array([complex(phi(alg.group_mult(xp, k.apply(*yp)))) for k in ks]) / pe
    avg = complex(np.mean(vals))
    target = (complex(phi(xp)) / pe) * (complex(phi(yp)) / pe)
    calls = []
    original = LauretAlgebra.group_mult

    def counted(self, p, q):
        calls.append(1)
        return original(self, p, q)

    monkeypatch.setattr(LauretAlgebra, "group_mult", counted)
    rep = functional_equation_residual(phi, alg, xp, yp, ks)
    assert len(calls) == 1
    assert rep.samples == 500
    assert rep.residual == float(abs(avg - target))
    assert rep.stderr == float(np.sqrt(np.sum(np.abs(vals - avg) ** 2)) / len(vals))


def test_monte_carlo_budget(monkeypatch):
    # IX(n=3): dim_v = 6, dim_g = 9; the budget admits 20 orbit samples
    # (720 entries) but not 100 (3600), and 5 K-actions but not 6: the G'
    # stack, Ad, U and U pi(g) are 5 * (3 * 36 + 81) = 945 entries, 1134 at 6
    monkeypatch.setenv("NILHARM_BUDGET", "1000")
    alg = build_case("IX", n=3)
    idx = spherical_index(alg, np.array([0.3, -0.2, 0.9, 0.1, 0.4, -0.5, 0.2, 0.7, -0.1]), (1, 0, 1))
    z, v = np.zeros(alg.dim_g), 0.5 * np.ones(alg.dim_v)
    assert phi_orbit(idx, z, v, samples=20).stderr > 0.0
    with pytest.raises(BudgetError, match="orbit samples"):
        phi_orbit(idx, z, v, samples=100)
    assert len(sample_k_actions(alg, as_rng(0), count=5)) == 5
    with pytest.raises(BudgetError, match="automorphisms"):
        sample_k_actions(alg, as_rng(0), count=20)
    with pytest.raises(BudgetError, match="automorphisms"):
        sample_k_actions(alg, as_rng(0), count=6)


def _circle_actions(count):
    # deterministic U(1) quadrature acting on V = R^2, trivial on g
    th = 2.0 * np.pi * np.arange(count) / count
    c, s = np.cos(th), np.sin(th)
    rots = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    return OrthAutomorphism(np.ones((count, 1, 1)), rots)


def test_functional_equation_vii_u1_quadrature():
    # trapezoid rule on the circle converges geometrically for the
    # entire integrand, so the residual sits at quadrature accuracy
    alg = build_case("VII", n=1)
    idx = spherical_index(alg, [1.3], 2)
    fn = idx.functional

    def phi(point):
        z, v = point
        return psi_closed(idx, float(fn.y @ z), v)

    rng = as_rng(4)
    for _ in range(3):
        xp = (rng.standard_normal(1) * 0.4, rng.standard_normal(2) * 0.8)
        yp = (rng.standard_normal(1) * 0.4, rng.standard_normal(2) * 0.8)
        rep = functional_equation_residual(phi, alg, xp, yp, _circle_actions(64))
        assert rep.residual < 1e-6


def test_functional_equation_vii_un_mc():
    alg = build_case("VII", n=2)
    idx = spherical_index(alg, [0.9], 1)
    fn = idx.functional

    def phi(point):
        z, v = point
        return psi_closed(idx, float(fn.y @ z), v)

    rng = as_rng(5)
    xp = (rng.standard_normal(1) * 0.3, rng.standard_normal(4) * 0.6)
    yp = (rng.standard_normal(1) * 0.3, rng.standard_normal(4) * 0.6)
    ks = sample_k_actions(alg, as_rng(6), count=4000)
    rep = functional_equation_residual(phi, alg, xp, yp, ks)
    assert rep.residual <= 1e-6 + 3.5 * rep.stderr


def test_functional_equation_caseI_mc():
    alg = build_case("I", n=1)
    lam, j = 1.2, 1

    def phi(point):
        z, v = point
        return phi_caseI_closed(lam, j, z, v)

    rng = as_rng(7)
    xp = (rng.standard_normal(3) * 0.4, rng.standard_normal(4) * 0.6)
    yp = (rng.standard_normal(3) * 0.4, rng.standard_normal(4) * 0.6)
    ks = sample_k_actions(alg, as_rng(8), count=4000)
    rep = functional_equation_residual(phi, alg, xp, yp, ks)
    assert rep.residual <= 1e-6 + 3.5 * rep.stderr


def test_phi_caseI_closed_angular_factor():
    # z-dependence is the normalized sphere average of the character
    lam = 1.0
    z = np.array([0.0, 0.0, np.pi])
    v = np.zeros(4)
    val = phi_caseI_closed(lam, 0, z, v)
    assert abs(val - sphere_character(np.pi)) < 1e-14
    assert abs(phi_caseI_closed(lam, 0, np.zeros(3), v) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        phi_caseI_closed(0.0, 0, z, v)
