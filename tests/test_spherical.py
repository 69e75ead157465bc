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
    invariant_polynomial_value,
    laguerre_product_coefficient,
    sublaplacian,
)
from test_acceptance import CASES as ACCEPTANCE_CASES, DEGENERATE_CASES
from scipy.special import comb, eval_genlaguerre, factorial, roots_genlaguerre

from nilharm import build_case, fock, spherical
from nilharm.algebra import LauretAlgebra, OrthAutomorphism, orbit_block, sample_k_actions
from nilharm.forms import weight_table
from nilharm.numerics import BudgetError, as_rng, mc_mean, sphere_character
from nilharm.spherical import (
    SphericalIndex,
    SphericalValue,
    canonical_polynomials,
    functional_equation_residual,
    phi,
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
        SphericalIndex("VII", 0.0, (0,), {"n": 1})


def test_spherical_index_names_what_it_cannot_resolve():
    with pytest.raises(ValueError, match="case VII needs the parameter 'n'"):
        SphericalIndex("VII", 1.0, (1,), {})
    with pytest.raises(ValueError, match="case III needs the parameter 'k1'"):
        SphericalIndex("III", 1.0, (0, 0, 0, 0), {"k2": 1})
    with pytest.raises(ValueError, match="no K_x-type runs"):
        SphericalIndex("II", 1.0, (0,), {"n": 1})
    with pytest.raises(NotImplementedError, match="no K_x-type runs"):
        SphericalIndex("IV", 1.0, (0, 0, 0, 0), {"n": 1})
    with pytest.raises(ValueError, match="unknown case label"):
        fock.kx_blocks("XI", {"n": 1})


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


@pytest.mark.parametrize("case,params", RUN_CASES,
                         ids=[f"{c}-{'-'.join(map(str, p.values()))}" for c, p in RUN_CASES])
def test_a_component_index_is_one_degree_per_run(case, params):
    # one index per K_x-type: VIII's GL(k) label j sits on an empty run,
    # so no case translates between a component index and run degrees
    runs = fock.kx_blocks(case, params)
    for comp in fock.metaplectic_components(case, params, 3):
        assert len(comp.index) == len(runs)
        assert SphericalIndex(case, 1.0, comp.index, params).index == comp.index


@pytest.mark.parametrize("case,params,index", [
    ("V", {"n": 3}, (1, 0)), ("VI", {"n": 2}, (2, 1)), ("IX", {"n": 3}, (1,)),
])
def test_closed_psi_rejects_an_index_off_the_runs(case, params, index):
    # V(3) and IX(3) have three runs, VI(2) one: the runs come from the
    # parameters, so a v sized to the index is not read as a point of
    # some smaller instance
    with pytest.raises(ValueError, match="one degree per run"):
        psi_closed(SphericalIndex(case, 1.0, index, params), 0.0, np.zeros(2 * len(index)))


@pytest.mark.parametrize("case,params", RUN_CASES,
                         ids=[f"{c}-{'-'.join(map(str, p.values()))}" for c, p in RUN_CASES])
def test_spherical_index_rejects_bad_frequencies_and_degrees(case, params):
    # the index is checked once, when it is built; before, a fractional
    # degree was truncated and a non-finite lam gave NaN
    runs = fock.kx_blocks(case, params)
    good = (0,) * len(runs)
    idx = SphericalIndex(case, 1.0, good, params)
    assert idx.runs == runs and idx.index == (0,) * len(runs)
    assert SphericalIndex(case, 1.0, list(good), params).index == good
    for lam in (0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite nonzero frequency"):
            SphericalIndex(case, lam, good, params)
    for index in [(-1,) + good[1:], (1.7,) + good[1:], good + (0,), good[:-1]]:
        with pytest.raises(ValueError):
            SphericalIndex(case, 1.0, index, params)
    alg = build_case(case, **params)
    x = as_rng(5).standard_normal(alg.dim_g)
    assert spherical_index(alg, x, good).index == idx.index
    with pytest.raises(ValueError, match="nonnegative integers"):
        spherical_index(alg, x, (1.7,) + good[1:])


@pytest.mark.parametrize("case,params,index", [
    ("III", {"k1": 0, "k2": 1}, (1, 0, 0, 0)),
    ("III", {"k1": 1, "k2": 0}, (0, 0, 0, 2)),
    ("VIII", {"k": 1, "n": 0}, (0, 0, 0, 1)),
])
def test_spherical_index_rejects_a_degree_on_an_empty_run(case, params, index):
    with pytest.raises(ValueError, match="0 on an empty run"):
        SphericalIndex(case, 1.0, index, params)


@pytest.mark.parametrize("lam,j", [(0.0, 1), (float("nan"), 1), (float("inf"), 1),
                                   (1.0, -1), (1.0, 1.5), (1.0, float("nan"))])
def test_phi_case_i_closed_rejects_bad_frequency_and_degree(lam, j):
    with pytest.raises(ValueError):
        phi_caseI_closed(lam, j, np.zeros(3), np.zeros(4))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("t,v", [(NAN, [0.1, 0.2]), (INF, [0.1, 0.2]), (0.3, [INF, 0.2]),
                                 (0.3, [0.1, NAN]), (0.3, [complex(0.1, -INF)])])
def test_psi_closed_rejects_non_finite_points(t, v):
    # before, nan+nanj, where psi_numeric and pi_matrix raise
    with pytest.raises(ValueError, match="finite t and v"):
        psi_closed(SphericalIndex("VII", 1.0, (1,), {"n": 1}), t, v)


@pytest.mark.parametrize("z,v", [([NAN, 0.0, 0.0], np.zeros(4)), (np.zeros(3), [0.0, -INF, 0.0, 0.0])])
def test_phi_case_i_closed_rejects_non_finite_points(z, v):
    with pytest.raises(ValueError, match="finite z and v"):
        phi_caseI_closed(1, 1, z, v)


def test_psi_closed_rejects_an_overflowing_phase():
    # lam t = 1e309: before, nan+nanj with a RuntimeWarning
    with pytest.raises(ValueError, match="lam t .* overflows"):
        psi_closed(SphericalIndex("VII", 1e308, (0,), {"n": 1}), 10.0, [0.1, 0.2])


def test_phi_case_i_closed_rejects_an_overflowing_angle():
    # |lam| |z| = 1e309: before, nan+0j with a RuntimeWarning
    with pytest.raises(ValueError, match=r"\|lam\| \|z\| .* overflows"):
        phi_caseI_closed(1e308, 0, [10, 0, 0], [0.1, 0, 0, 0])


@pytest.mark.parametrize("where", ["z", "v"])
def test_phi_orbit_rejects_non_finite_points(where):
    # before, a value and a standard error of nan
    alg = build_case("V", n=3)
    rng = as_rng(62)
    idx = spherical_index(alg, rng.standard_normal(alg.dim_g), (1, 0, 2))
    z, v = np.zeros(alg.dim_g), np.zeros(alg.dim_v)
    (z if where == "z" else v)[1] = NAN
    with pytest.raises(ValueError, match="finite z and v"):
        phi_orbit(idx, z, v, samples=10)


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
    # at z = 0 the orbit integrand is the closed psi at pi(g) v in the
    # symplectically normalized coordinates of h, complex coordinate a
    # scaled by sqrt(|mu_a| / |lam|), so the Monte Carlo value and its
    # stderr are those of the same draws
    alg = build_case(case, **params)
    rng = as_rng(51)
    idx = spherical_index(alg, rng.standard_normal(alg.dim_g), index)
    v = 0.7 * rng.standard_normal(alg.dim_v)
    samples, seed = 64, 9
    normalize = np.repeat(np.sqrt(np.abs(weight_table(alg, idx.functional)) / idx.lam), 2)
    w = (alg.ops.sample_vmats(as_rng(seed), samples) @ v) * normalize
    ref = np.array([psi_closed(idx, 0.0, wi) for wi in w])
    got = phi_orbit(idx, np.zeros(alg.dim_g), v, samples=samples, seed=seed)
    assert abs(got.value - np.mean(ref)) < 1e-12
    assert abs(got.stderr - np.sqrt(np.sum(np.abs(ref - np.mean(ref)) ** 2)) / samples) < 1e-12


# every case phi_orbit reaches, and IV.  X is left out on purpose: it
# draws its SU(m) part and its quaternion part as two separate arrays,
# so its blocks would not draw one stack, but it has no K_x-type runs
# and phi_orbit never samples it.
STREAM_CASES = [
    ("I", {"n": 1}),
    ("III", {"k1": 1, "k2": 1}),
    ("IV", {"n": 1}),
    ("V", {"n": 3}),
    ("VI", {"n": 4}),
    ("VII", {"n": 2}),
    ("VIII", {"k": 1, "n": 1}),
    ("IX", {"n": 3}),
]


@pytest.mark.parametrize("case,params", STREAM_CASES, ids=[c[0] for c in STREAM_CASES])
def test_sample_vmats_in_blocks_draws_one_stack(case, params):
    # each sample draws its variates together, so the blocks an orbit
    # pass draws are, byte for byte, one stack of all the samples; the
    # cases span dim_v = 4, 6, 8 and 12
    alg = build_case(case, **params)
    block = orbit_block(alg.dim_v)
    sizes = (block, block, block // 3)
    rng = as_rng(5)
    blocks = np.concatenate([alg.ops.sample_vmats(rng, size) for size in sizes])
    assert np.array_equal(blocks, alg.ops.sample_vmats(as_rng(5), sum(sizes)))


BLOCK_CASES = [
    ("I", {"n": 1}, (2,)),
    ("III", {"k1": 1, "k2": 1}, (1, 1, 0, 2)),
    ("V", {"n": 3}, (1, 0, 2)),
    ("VI", {"n": 4}, (1, 2)),
    ("VIII", {"k": 1, "n": 1}, (1, 1, 0, 2)),
    ("IX", {"n": 3}, (0, 2, 1)),
]


@pytest.mark.parametrize("case,params,index", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES])
def test_phi_orbit_in_blocks_is_the_one_stack_estimate(case, params, index):
    # two full blocks and a partial one (dim_v = 4, 6, 8 and 12); the
    # estimate is that of the integrand built here from one stack of all
    # the samples
    alg = build_case(case, **params)
    rng = as_rng(61)
    idx = spherical_index(alg, rng.standard_normal(alg.dim_g), index)
    z = 0.5 * rng.standard_normal(alg.dim_g)
    v = 0.6 * rng.standard_normal(alg.dim_v)
    block = orbit_block(alg.dim_v)
    samples, seed = 2 * block + block // 3, 13
    fn = idx.functional
    h = alg.from_chamber(*fn.chamber[:2])
    mu = np.abs(weight_table(alg, fn))
    vmats = alg.ops.sample_vmats(as_rng(seed), samples)
    phase = np.exp(1j * alg.pair_forms(vmats, alg.kronecker_forms(h, z)))
    vals = spherical._v_factor(idx.runs, idx.index, mu, np.einsum("sab,b->sa", vmats, v), phase)
    mean, stderr = mc_mean(vals)
    got = phi_orbit(idx, z, v, samples=samples, seed=seed)
    if case == "I":
        assert got.value == mean and got.stderr == stderr
    assert abs(got.value - mean) <= 1e-13 * abs(mean)
    assert abs(got.stderr - stderr) <= 1e-13 * stderr


def _count_calls(monkeypatch, name):
    """Count the calls of LauretAlgebra.name from here on."""
    calls = []
    original = getattr(LauretAlgebra, name)

    def spy(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(LauretAlgebra, name, spy)
    return calls


@pytest.mark.parametrize("case,params,index", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES])
def test_phi_orbit_builds_one_form_per_call(monkeypatch, case, params, index):
    # one Kronecker form for the whole pass, however many blocks it pairs
    alg = build_case(case, **params)
    rng = as_rng(62)
    idx = spherical_index(alg, rng.standard_normal(alg.dim_g), index)
    forms = _count_calls(monkeypatch, "kronecker_forms")
    pairs = _count_calls(monkeypatch, "pair_forms")
    phi_orbit(idx, rng.standard_normal(alg.dim_g), rng.standard_normal(alg.dim_v),
              samples=3 * orbit_block(alg.dim_v) + 1, seed=4)
    assert len(forms) == 1
    assert len(pairs) == 4


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


# (case, params, index): every route of phi; VII and VI(2) have g = R
DISPATCH = [
    ("I", {"n": 1}, (1,)), ("I", {"n": 2}, (2,)), ("VII", {"n": 1}, (2,)), ("VII", {"n": 2}, (1,)),
    ("V", {"n": 3}, (1, 0, 0)), ("IX", {"n": 3}, (0, 1, 0)), ("VI", {"n": 2}, (1,)),
    ("VI", {"n": 4}, (1, 0)), ("III", {"k1": 1, "k2": 1}, (1, 0, 0, 1)),
    ("VIII", {"k": 1, "n": 1}, (1, 0, 0, 1)),
]


@pytest.mark.parametrize("case,params,index", DISPATCH,
                         ids=[f"{c}-{'-'.join(map(str, p.values()))}" for c, p, _ in DISPATCH])
def test_phi_picks_the_closed_form_by_case_label(case, params, index):
    alg = build_case(case, **params)
    rng = as_rng(31)
    x = 1.3 * np.ones(1) if alg.dim_g == 1 else rng.standard_normal(alg.dim_g)
    idx = spherical_index(alg, x, index)
    z = 0.4 * rng.standard_normal(alg.dim_g)
    v = 0.6 * rng.standard_normal(alg.dim_v)
    got = phi(idx, z, v, samples=300, seed=9)
    if case == "I":
        assert got == SphericalValue(phi_caseI_closed(idx.lam, index[0], z, v), "closed-form", 0.0)
    elif case == "VII":
        # the direction of x = (1.3,) is y = (1,), so <y, z> = z_0
        assert got == SphericalValue(psi_closed(idx, z[0], v), "closed-form", 0.0)
    else:
        assert got == phi_orbit(idx, z, v, samples=300, seed=9)
        assert got.method == "orbit-MC"
    if case == "VI" and params["n"] == 2:
        # G' is trivial, but the h-frame frequency is |lam| / sqrt(2)
        assert got.value != psi_closed(idx, z[0], v)


def test_phi_needs_a_functional():
    with pytest.raises(ValueError, match="built from a functional"):
        phi(SphericalIndex("VII", 1.3, (1,), {"n": 1}), np.zeros(1), np.zeros(2))


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


SUBLAPLACIAN_CASES = [
    ("I", {"n": 2}),
    ("III", {"k1": 1, "k2": 1}),
    ("V", {"n": 3}),
    ("VI", {"n": 4}),
    ("VII", {"n": 2}),
    ("VIII", {"k": 1, "n": 1}),
    ("IX", {"n": 3}),
]


@pytest.mark.parametrize("case,params", SUBLAPLACIAN_CASES, ids=[c[0] for c in SUBLAPLACIAN_CASES])
def test_phi_orbit_is_a_sublaplacian_eigenfunction(case, params):
    # a bounded spherical function of a Gelfand pair is an eigenfunction
    # of every K-invariant left-invariant operator, the sub-Laplacian
    # among them (Benson, Jenkins and Ratcliff, "On Gelfand pairs
    # associated with solvable Lie groups", 1990).  At a fixed seed
    # phi_orbit is a fixed average of smooth functions, so L phi / phi is
    # one constant with no sampling error: -sum over runs of
    # |mu_run| (2 deg + size), mu_run the weight of h on the run
    alg = build_case(case, **params)
    rng = as_rng(5)
    runs = fock.kx_blocks(case, params)
    idx = spherical_index(alg, rng.standard_normal(alg.dim_g), (1,) + (0,) * (len(runs) - 1))

    def phi(z, v):
        return phi_orbit(idx, z, v, samples=300, seed=17).value

    ratios = []
    for _ in range(3):
        z = 0.5 * rng.standard_normal(alg.dim_g)
        v = 0.6 * rng.standard_normal(alg.dim_v)
        ratios.append(sublaplacian(alg, phi, z, v) / phi(z, v))
    assert max(abs(r - ratios[0]) for r in ratios) <= 1e-9 * abs(ratios[0]), ratios
    mu = np.abs(weight_table(alg, idx.functional))
    starts = np.cumsum((0,) + runs[:-1])
    want = -sum(mu[a] * (2 * deg + size) for a, size, deg in zip(starts, runs, idx.index) if size)
    assert max(abs(r - want) for r in ratios) <= 1e-8 * abs(want), (ratios, want)


def test_phi_orbit_requires_square_integrable():
    # V(3) has runs, so the index resolves; the zero middle angle is a
    # weight of C^3, so the functional is degenerate
    alg = build_case("V", n=3)
    idx = spherical_index(alg, alg.from_chamber((np.array([1.0, 0.0, -1.0]),), None), (0, 0, 0))
    assert not idx.functional.verdict.square_integrable
    with pytest.raises(ValueError, match="square-integrable"):
        phi_orbit(idx, np.zeros(alg.dim_g), np.zeros(alg.dim_v), samples=10)


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
                    assert abs(dict(q.coeffs).get((k,), 0.0) - want) < 1e-8 * max(1.0, abs(want))


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
    vals = np.array([invariant_polynomial_value(q, pts) for q in qs])
    gram = (vals * wts) @ vals.T
    norms = np.sqrt(np.diag(gram))
    off = gram / np.outer(norms, norms) - np.eye(len(qs))
    assert np.max(np.abs(off)) < 1e-10
    assert qs[0].coeffs == (((0, 0), 1.0),)
    for q in qs:
        assert abs(invariant_polynomial_value(q, np.zeros((1, 2))) - 1.0) < 1e-14


@pytest.mark.parametrize("alpha", [0, 1, 3])
@pytest.mark.parametrize("lam", [0.6, 1.0, 2.5])
def test_gamma_moments_match_gauss_laguerre(alpha, lam):
    got = gamma_moments(alpha, lam, 12)
    want = gauss_laguerre_moments(alpha, lam, 12)
    assert got.shape == (13,) and got[0] == 1.0
    assert np.max(np.abs(got / want - 1.0)) < 1e-13


# generator radial exponents per case, stated independently of the library
# (VIII with k = 1: the two C runs, then (C^2)^n, real dimension 4n, when n >= 1)
_ALPHAS = {"VII": lambda p: (p["n"] - 1,),
           "VIII": lambda p: (0, 0) + ((2 * p["n"] - 1,) if p.get("n", 0) else ()),
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


@pytest.mark.parametrize("n", [0, 1, 2])
def test_canonical_polynomials_viii_count_its_kx_types(n):
    # one polynomial per K_x-type of each degree (1, 3, 6, 10 for n >= 1),
    # each the product of normalized Laguerre polynomials in the run norms
    params, lam = {"k": 1, "n": n}, 1.3
    qs = canonical_polynomials("VIII", params, 3, lam=lam)
    comps = fock.metaplectic_components("VIII", params, 3)
    assert [sum(sum(q.leading) == d for q in qs) for d in range(4)] == \
        [sum(c.degree == d for c in comps) for d in range(4)]
    alphas = _ALPHAS["VIII"](params)
    for q in qs:
        assert q.alphas == alphas
        for expo in itertools.product(*(range(a + 1) for a in q.leading)):
            want = laguerre_product_coefficient(q.leading, expo, alphas, lam)
            assert abs(Fraction(dict(q.coeffs).get(expo, 0.0)) - want) <= 1e-14 * abs(want)


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
    vals = np.array([invariant_polynomial_value(q, pts) for q in qs])
    gram = np.einsum("aij,bij,ij->ab", vals, vals, wts)
    norms = np.sqrt(np.diag(gram))
    off = gram / np.outer(norms, norms) - np.eye(len(qs))
    assert np.max(np.abs(off)) < 1e-10


@pytest.mark.parametrize("case,alpha", [("VII", 0), ("IV", 1)])
def test_invariant_polynomial_evaluate_at_degree_20(case, alpha):
    # coeffs drops the coefficients below 1e-14, which s^k multiplies
    # back up: the monomial sum of VII's is off by 33 at s = 10 (value 2.02)
    qs = [q for q in canonical_polynomials(case, {"n": 1}, 20) if sum(q.leading) == 20]
    s = np.array([5.0, 10.0, 20.0])
    pts = np.stack([s, s[::-1]], axis=-1)[:, : len(qs[0].alphas)]
    for q in qs:
        want = np.prod([eval_genlaguerre(a, alpha, pts[:, g] / 2.0) / eval_genlaguerre(a, alpha, 0.0)
                        for g, a in enumerate(q.leading)], axis=0)
        got = invariant_polynomial_value(q, pts)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want)), (q.leading, got, want)


def test_invariant_polynomial_evaluate_keeps_leading_axes():
    q = canonical_polynomials("IV", {"n": 1}, 2, lam=1.0)[4]
    assert q.leading == (1, 1)
    pts = np.linspace(0.1, 2.0, 12).reshape(2, 3, 2)
    got = invariant_polynomial_value(q, pts)
    assert got.shape == (2, 3)
    want = (1.0 - pts[..., 0] / 4.0) * (1.0 - pts[..., 1] / 4.0)
    assert np.max(np.abs(got - want)) < 1e-15
    one = invariant_polynomial_value(q, np.ones((1, 2)))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert isinstance(invariant_polynomial_value(q, [1.0, 2.0]), float)
    with pytest.raises(ValueError):
        invariant_polynomial_value(q, np.ones((4, 3)))


def test_viii_v_factor_on_a_stack_matches_pointwise():
    # the VIII kernel is vectorized over leading axes of v, including
    # the canonical-polynomial factor
    params = {"k": 1, "n": 1}
    lam = 1.1
    index = (1, 2, 0, 1)
    v = 0.6 * as_rng(5).standard_normal((2, 3, 8))
    idx = SphericalIndex("VIII", lam, index, params)
    assert (idx.runs, idx.index) == ((1, 1, 0, 2), (1, 2, 0, 1))
    got = spherical._v_factor(idx.runs, idx.index, np.full(4, lam), v, 1.0)
    assert got.shape == (2, 3)
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
    # IX(n=3): dim_v = 6, dim_g = 9; the orbit pairing's Kronecker form
    # is 6^4 = 1296 entries, so a budget of 1296 admits 20 orbit samples
    # (720 entries) but not 100 (3600), and 1000 admits no orbit average;
    # 1000 admits 5 K-actions but not 6: the G' stack, Ad, U and U pi(g)
    # are 5 * (3 * 36 + 81) = 945 entries, 1134 at 6
    monkeypatch.setenv("NILHARM_BUDGET", "1000")
    alg = build_case("IX", n=3)
    idx = spherical_index(alg, np.array([0.3, -0.2, 0.9, 0.1, 0.4, -0.5, 0.2, 0.7, -0.1]), (1, 0, 1))
    z, v = np.zeros(alg.dim_g), 0.5 * np.ones(alg.dim_v)
    with pytest.raises(BudgetError, match="1 x 6\\^4 Kronecker-form entries"):
        phi_orbit(idx, z, v, samples=20)
    monkeypatch.setenv("NILHARM_BUDGET", "1296")
    assert phi_orbit(idx, z, v, samples=20).stderr > 0.0
    with pytest.raises(BudgetError, match="orbit samples"):
        phi_orbit(idx, z, v, samples=100)
    monkeypatch.setenv("NILHARM_BUDGET", "1000")
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

    def at(point):
        return phi(idx, *point).value

    rng = as_rng(4)
    for _ in range(3):
        xp = (rng.standard_normal(1) * 0.4, rng.standard_normal(2) * 0.8)
        yp = (rng.standard_normal(1) * 0.4, rng.standard_normal(2) * 0.8)
        rep = functional_equation_residual(at, alg, xp, yp, _circle_actions(64))
        assert rep.residual < 1e-6


def test_functional_equation_vii_un_mc():
    alg = build_case("VII", n=2)
    idx = spherical_index(alg, [0.9], 1)

    def at(point):
        return phi(idx, *point).value

    rng = as_rng(5)
    xp = (rng.standard_normal(1) * 0.3, rng.standard_normal(4) * 0.6)
    yp = (rng.standard_normal(1) * 0.3, rng.standard_normal(4) * 0.6)
    ks = sample_k_actions(alg, as_rng(6), count=4000)
    rep = functional_equation_residual(at, alg, xp, yp, ks)
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
