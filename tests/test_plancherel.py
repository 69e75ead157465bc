"""Tests for Plancherel densities, group convolution, inversion checks,
and twisted-convolution projections."""

import numpy as np
import pytest
from _oracles import twisted_convolution, wynn_limit
from scipy.special import eval_laguerre
from test_spherical import _count_calls

from nilharm import (
    build_case,
    density,
    density_of,
    fock,
    general_inversion_probe,
    group_convolution,
    heisenberg_inversion_check,
    projection_check,
)
from nilharm.algebra import orbit_block
from nilharm.numerics import BudgetError, QuadratureSpec, as_rng, laguerre, laguerre_all, mc_mean
from nilharm.plancherel import _laguerre_slices, _probe_one_width, _twisted_laguerre, _wynn_limit
from nilharm.spherical import canonical_polynomials, phi_orbit, spherical_index


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_density_heisenberg_power():
    # no compact Cartan: theta = 1 and the pfaffian is |lam|^n
    for n in (1, 2, 3):
        alg = build_case("VII", n=n)
        d = density(alg, (), [1.7])
        assert d.theta == 1.0
        assert abs(d.pfaffian - 1.7**n) < 1e-12
        assert abs(d.value - 1.7**n) < 1e-12
        assert d.square_integrable


def test_density_caseI_weight():
    # pfaffian r^2 and theta 4 r^2 combine to the 4 r^4 inversion weight
    alg = build_case("I", n=1)
    rng = as_rng(0)
    for _ in range(5):
        x = rng.standard_normal(3)
        r = np.linalg.norm(x)
        d = density_of(alg, x)
        assert abs(d.pfaffian - r**2) < 1e-12 * r**2
        assert abs(d.theta - 4 * r**2) < 1e-12 * r**2
        assert abs(d.value - 4 * r**4) < 1e-11 * r**4


def test_density_caseV_product_formulas():
    # pfaffian = prod |theta_j| over the torus weights, theta = the
    # squared Vandermonde of the angles
    alg = build_case("V", n=3)
    ang = np.array([1.0, 0.2, -1.2])
    d = density(alg, (ang,), [])
    pf = abs(np.prod(ang))
    th = np.prod([(ang[i] - ang[j]) ** 2 for i in range(3) for j in range(i + 1, 3)])
    assert abs(d.pfaffian - pf) < 1e-12
    assert abs(d.theta - th) < 1e-10


def test_density_degenerate_case_is_zero():
    alg = build_case("II", n=1)
    rng = as_rng(1)
    for _ in range(5):
        d = density_of(alg, rng.standard_normal(alg.dim_g))
        assert d.value == 0.0
        assert not d.square_integrable


def test_density_free_odd_case_has_no_chamber():
    # so(3) has no implemented torus factor: the density is still defined
    # (pfaffian vanishes on the odd-dimensional V) but chamber data is not
    from nilharm.forms import Functional

    alg = build_case("VI", n=3)
    rng = as_rng(2)
    for _ in range(5):
        x = rng.standard_normal(alg.dim_g)
        d = density_of(alg, x)
        assert d.value == 0.0
        assert d.theta == 1.0
        assert not d.square_integrable
        with pytest.raises(NotImplementedError):
            Functional(alg, x).chamber


def test_density_argument_validation():
    algV = build_case("V", n=3)
    with pytest.raises(ValueError):
        density(algV, (np.array([1.0, 0.2, -1.2]),), [0.7])
    algVII = build_case("VII", n=1)
    with pytest.raises(ValueError):
        density(algVII, [1.0], [1.0])


def test_density_without_chamber_angles_is_a_value_error():
    # the check the CLI makes for a missing --H (exit 2), not a TypeError
    with pytest.raises(ValueError, match="needs chamber angles"):
        density(build_case("V", n=3), None, [])


# ---------------------------------------------------------------------------
# group convolution
# ---------------------------------------------------------------------------

def _gauss(a):
    return lambda p: np.exp(-a * np.sum(p**2, axis=1))


def test_group_convolution_matches_group_law_sum():
    # re-evaluate the quadrature sum through the group operations
    alg = build_case("VII", n=1)
    f = _gauss(0.7)

    def g(p):
        return np.exp(-0.5 * np.sum(p**2, axis=1)) * (1 + 0.3 * p[:, 0])

    spec = QuadratureSpec.cube(12, 4.0, 3)
    conv = group_convolution(alg, f, g, spec)
    probes = np.array([[0.2, -0.1, 0.3], [0.0, 0.4, -0.2]])
    ys, w = spec.grid()
    fy = f(ys) * w
    direct = []
    for row in probes:
        x = (row[:1], row[1:])
        acc = 0.0
        for s in range(len(ys)):
            # (z, v)^{-1} = (-z, -v) in exponential coordinates
            zz, vv = alg.group_mult((-ys[s, :1], -ys[s, 1:]), x)
            acc += fy[s] * g(np.concatenate([zz, vv])[None, :])[0]
        direct.append(acc)
    assert np.max(np.abs(conv(probes) - np.array(direct))) < 1e-12


def test_group_convolution_delta_approximation():
    # convolving with a unit-mass near-delta reproduces f up to eps^2
    alg = build_case("VII", n=1)
    eps = 0.15
    norm = (np.pi * eps**2) ** (-1.5)

    def delta(p):
        return norm * np.exp(-np.sum(p**2, axis=1) / eps**2)

    f = _gauss(0.7)
    conv = group_convolution(alg, delta, f, QuadratureSpec.cube(20, 1.0, 3))
    probes = np.array([[0.2, -0.1, 0.3], [0.0, 0.4, -0.2]])
    assert np.max(np.abs(conv(probes) - f(probes))) < 1.5 * eps**2


def test_group_convolution_associative():
    alg = build_case("VII", n=1)
    f, h = _gauss(0.7), _gauss(0.6)

    def g(p):
        return np.exp(-0.5 * np.sum(p**2, axis=1)) * (1 + 0.3 * p[:, 0])

    spec = QuadratureSpec.cube(14, 5.0, 3)
    fg = group_convolution(alg, f, g, spec)
    gh = group_convolution(alg, g, h, spec)
    probe = np.array([[0.2, -0.1, 0.3]])
    left = group_convolution(alg, lambda p: fg(p), h, spec)(probe)
    right = group_convolution(alg, f, lambda p: gh(p), spec)(probe)
    # values are O(27); the deviation is quadrature domain truncation
    assert np.abs(left - right) < 0.05


def test_group_convolution_shape_follows_the_input():
    # (P, dim) gives (P,) for every P, one (dim,) point gives one value
    alg = build_case("VII", n=1)
    conv = group_convolution(alg, _gauss(0.7), _gauss(0.5), QuadratureSpec.cube(8, 3.0, 3))
    pts = np.array([[0.2, -0.1, 0.3], [0.0, 0.4, -0.2]])
    both = conv(pts)
    assert both.shape == (2,)
    one = conv(pts[:1])
    assert one.shape == (1,) and one[0] == both[0]
    point = conv(pts[0])
    assert np.ndim(point) == 0 and point == both[0]
    with pytest.raises(ValueError, match="one point or a"):
        conv(pts[None])


@pytest.mark.parametrize("case, n", [("VII", 1), ("VII", 2), ("I", 1)])
def test_group_convolution_column_major_buffer(case, n):
    # g reads the points y^{-1} x in the grid's column-major order (the
    # first convolution's three calls), and its row sums give the bits
    # of a C-ordered copy
    alg = build_case(case, n=n)
    dim = alg.dim_g + alg.dim_v
    seen = []

    def g(p):
        seen.append(p.flags.f_contiguous)
        return np.exp(-0.5 * np.sum(p**2, axis=1)) * (1 + 0.3 * p[:, 0])

    spec = QuadratureSpec.cube(6, 3.0, dim)
    pts = as_rng(2).standard_normal((3, dim))
    cols = group_convolution(alg, _gauss(0.7), g, spec)(pts)
    rows = group_convolution(alg, _gauss(0.7), lambda p: g(np.ascontiguousarray(p)), spec)(pts)
    assert all(seen[:3]) and np.array_equal(cols, rows)


def test_group_convolution_dimension_check():
    alg = build_case("VII", n=1)
    with pytest.raises(ValueError):
        group_convolution(alg, _gauss(1.0), _gauss(1.0), QuadratureSpec.cube(8, 3.0, 2))


# ---------------------------------------------------------------------------
# Laguerre slices feeding the Heisenberg inversion
# ---------------------------------------------------------------------------

def test_laguerre_slices_closed_form_at_origin():
    # int e^{-p t} L_j(q t) dt = (p - q)^j / p^{j+1} with t = |w|^2
    lam, b, J = 1.3, 0.8, 6
    S = _laguerre_slices(lam, b, ((0.0, (0.0, 0.0)),), J, 140)
    p, q = b + lam / 4.0, b - lam / 4.0
    for j in range(J + 1):
        want = np.pi * q**j / p ** (j + 1)
        assert abs(S[j, 0] - want) < 1e-12


def test_laguerre_slices_are_twisted_convolutions():
    # the measured slice equals the lam-twisted convolution at
    # frequency -lam (the phase sign convention of the inversion)
    lam, b, J = 1.3, 0.8, 4
    v = (0.4, -0.3)
    S = _laguerre_slices(lam, b, ((0.0, v),), J, 140)
    half = np.linalg.norm(v) + np.sqrt((37.0 + 2.0 * J) / (b + lam / 4.0))
    spec = QuadratureSpec.cube(140, half, 2)

    def fg(w):
        return np.exp(-b * np.sum(np.abs(w) ** 2, axis=1))

    for j in (0, 2):
        def phij(w, j=j):
            x = lam * np.sum(np.abs(w) ** 2, axis=1) / 2.0
            return laguerre(j, 0.0, x) * np.exp(-x / 2.0)

        conv = twisted_convolution(fg, phij, -lam, spec)
        got = conv(np.array([[v[0] + 1j * v[1]]]))[0]
        assert abs(got - S[j, 0]) < 1e-12


def _slices_on_full_grid(lam, b, probes, J, vnodes):
    # the slice integrand evaluated point by point on the full tensor
    # grid, with the order-0 Laguerre table of the 2-d argument
    vmax = max(np.linalg.norm(v) for _, v in probes)
    half = vmax + np.sqrt((37.0 + 2.0 * J) / (b + lam / 4.0))
    wv, wgt = QuadratureSpec.cube(vnodes, half, 2).grid()
    out = np.empty((J + 1, len(probes)), dtype=complex)
    for p, (_, v) in enumerate(probes):
        d = np.asarray(v)[None, :] - wv
        x = lam * (d[:, 0] ** 2 + d[:, 1] ** 2) / 2.0
        bracket = wv[:, 0] * v[1] - wv[:, 1] * v[0]
        common = wgt * np.exp(-b * (wv[:, 0] ** 2 + wv[:, 1] ** 2) - x / 2.0
                              - 0.5j * lam * bracket)
        out[:, p] = laguerre_all(J, 0.0, x) @ common
    return out


@pytest.mark.parametrize("lam", [0.05, 4.0, 7.9])
def test_laguerre_slices_match_full_grid_reference(lam):
    probes = ((0.5, (0.3, -0.2)), (-0.3, (0.1, 0.4)), (0.2, (-0.5, 0.1)),
              (0.8, (0.2, 0.2)), (0.0, (-0.35, -0.3)))
    for J in (0, 1, 20, 40):
        for b in (0.3, 1.0, 2.5):
            got = _laguerre_slices(lam, b, probes, J, 160)
            want = _slices_on_full_grid(lam, b, probes, J, 160)
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want)), (J, b)


# ---------------------------------------------------------------------------
# inversion checks
# ---------------------------------------------------------------------------

def test_heisenberg_inversion_reduced_budget():
    rep = heisenberg_inversion_check(J=10, lam_nodes=48, vnodes=120)
    assert rep.max_rel_error < 1e-5
    assert rep.passed()
    assert abs(rep.fitted_c / rep.classical_c - 1.0) < 1e-3
    # tail completion beats the raw truncated series by orders
    assert max(rep.raw_rel_errors) > 100 * rep.max_rel_error


def test_heisenberg_inversion_raw_error_decreases_with_J():
    r6 = heisenberg_inversion_check(J=6, lam_nodes=48, vnodes=120)
    r10 = heisenberg_inversion_check(J=10, lam_nodes=48, vnodes=120)
    assert max(r10.raw_rel_errors) < max(r6.raw_rel_errors)


def test_heisenberg_inversion_rejects_bad_widths():
    for widths in [(0.0, 1.0), (1.0, -2.0), (float("nan"), 1.0)]:
        with pytest.raises(ValueError, match="widths must be positive"):
            heisenberg_inversion_check(widths=widths)


# a lam_max that is not positive puts the frequency nodes outside
# (0, inf), where the inversion sums give NaN or meaningless values
BAD_LAM_MAX = [{"lam_max": 0.0}, {"lam_max": -8.0}, {"lam_max": -12.0}, {"lam_max": float("nan")}]


@pytest.mark.parametrize("bad", [{"J": -1}, {"lam_nodes": 0}, {"vnodes": 0}] + BAD_LAM_MAX)
def test_heisenberg_inversion_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        heisenberg_inversion_check(**bad)


INF = float("inf")
WIDTHS_I = ((0.8, 1.0, 1.3), 1.0), ((1.2, 0.9, 0.7), 0.6)


@pytest.mark.parametrize("call", [
    lambda: heisenberg_inversion_check(lam_max=INF),
    lambda: heisenberg_inversion_check(widths=(INF, 1.0)),
    lambda: heisenberg_inversion_check(widths=(1.0, INF)),
    lambda: general_inversion_probe(lam_max=INF),
    lambda: general_inversion_probe(width_specs=(((0.8, INF, 1.3), 1.0), WIDTHS_I[1])),
    lambda: general_inversion_probe(width_specs=(WIDTHS_I[0], ((1.2, 0.9, 0.7), INF))),
    lambda: projection_check(INF, 0, 1),
    lambda: projection_check(float("nan"), 1, 1),
    lambda: canonical_polynomials("VII", {"n": 1}, 2, lam=INF),
    lambda: canonical_polynomials("VII", {"n": 1}, 2, lam=float("nan")),
], ids=["heisenberg-lam-max", "heisenberg-a", "heisenberg-b", "probe-lam-max", "probe-a",
        "probe-b", "projection-inf", "projection-nan", "canonical-inf", "canonical-nan"])
def test_non_finite_sizes_and_widths_raise(call):
    # each returned a NaN or infinite result (or coefficients) before
    with pytest.raises(ValueError, match="finite"):
        call()


def _orbit_at(samples):
    alg = build_case("IX", n=3)
    idx = spherical_index(alg, np.arange(1, 10) / 10.0, (1, 0, 1))
    return phi_orbit(idx, np.zeros(alg.dim_g), np.ones(alg.dim_v), samples=samples)


@pytest.mark.parametrize("call", [
    lambda: heisenberg_inversion_check(J=2.5),
    lambda: heisenberg_inversion_check(lam_nodes=2.5),
    lambda: heisenberg_inversion_check(lam_nodes=True),
    lambda: heisenberg_inversion_check(vnodes=2.5),
    lambda: projection_check(1.1, 0, 0, nodes=2.5),
    lambda: general_inversion_probe(J=2.5),
    lambda: general_inversion_probe(lam_nodes=2.5),
    lambda: general_inversion_probe(samples=100.5),
    lambda: _orbit_at(100.5),
], ids=["heisenberg-J", "heisenberg-lam-nodes", "heisenberg-lam-nodes-bool", "heisenberg-vnodes",
        "projection-nodes", "probe-J", "probe-lam-nodes", "probe-samples", "orbit-samples"])
def test_non_integer_sizes_raise(call):
    # each failed inside numpy with a TypeError before; the sizes share
    # QuadratureSpec's integer check (numerics.is_count)
    with pytest.raises(ValueError, match="integer"):
        call()


@pytest.mark.parametrize("i,j,name", [(1.5, 1, "i"), (True, 1, "i"), (-1, 0, "i"),
                                      (1, 1.5, "j"), (0, False, "j"), (2, -1, "j")])
def test_projection_check_degrees_are_named_integers(i, j, name):
    # before, True gave a report with i=True, and 1.5 or -1 failed inside
    # laguerre_all with a message that named no argument
    with pytest.raises(ValueError, match=f"integer {name} >= 0"):
        projection_check(1.1, i, j)


def test_heisenberg_inversion_budget(monkeypatch):
    # the largest array is the (J+1, probes, 2, vnodes) Laguerre table,
    # at J = 20 and the 5 default probes
    table = 21 * 5 * 2 * 160
    monkeypatch.setenv("NILHARM_BUDGET", str(table - 1))
    with pytest.raises(BudgetError, match="Laguerre-table entries"):
        heisenberg_inversion_check(vnodes=160)
    monkeypatch.setenv("NILHARM_BUDGET", str(table))
    assert heisenberg_inversion_check(vnodes=160).passed()


def test_heisenberg_inversion_chunks_do_not_show(monkeypatch):
    # the slices run in chunks of frequency nodes under the budget: one
    # node's table per chunk, uneven chunks of 5 and one chunk of all 12
    # give the same report
    table = 11 * 5 * 2 * 80
    ref = heisenberg_inversion_check(J=10, lam_nodes=12, vnodes=80)
    for budget in (table, 5 * table + 7):
        monkeypatch.setenv("NILHARM_BUDGET", str(budget))
        assert heisenberg_inversion_check(J=10, lam_nodes=12, vnodes=80) == ref, budget


def test_heisenberg_inversion_rejects_empty_probes():
    with pytest.raises(ValueError, match="probes is empty"):
        heisenberg_inversion_check(probes=())


def test_wynn_limit_is_exact_on_a_geometric_series():
    r = 0.7 - 0.2j
    partial = np.cumsum(r ** np.arange(9))
    (limit,), (order,) = _wynn_limit(partial[:, None], 1.0)
    assert abs(limit - 1.0 / (1.0 - r)) < 1e-13
    assert order == 2


def test_wynn_limit_columns_are_the_one_run_tables():
    # each column of one table equals the one-run oracle bit for bit:
    # a repeated partial sum stops at order 0, sums of m geometric
    # components become exact and stop at order 2m, noise never stops
    rng = as_rng(5)
    K = 9
    cols = [np.cumsum(rng.standard_normal(K) + 1j * rng.standard_normal(K))]
    cols[0][4] = cols[0][3]
    for m in (1, 2, 3):
        for _ in range(3):
            r = rng.uniform(0.2, 0.9, m) * np.exp(1j * rng.uniform(-np.pi, np.pi, m))
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            cols.append(np.cumsum(a @ r[:, None] ** np.arange(K)))
    cols.append(np.cumsum(rng.standard_normal(K) + 1j * rng.standard_normal(K)))
    table = np.stack(cols, axis=1)
    scale = np.abs(table[-1]) + 1.0
    est, orders = _wynn_limit(table, scale)
    ref = [wynn_limit(table[:, m], scale[m]) for m in range(table.shape[1])]
    assert orders.tolist() == [k for _, k in ref]
    assert orders.tolist() == [0, 2, 2, 2, 4, 4, 4, 6, 6, 6, K - 1]
    assert all(e == r for e, (r, _) in zip(est, ref))


def test_heisenberg_inversion_reports_wynn_orders():
    rep = heisenberg_inversion_check(J=10, lam_nodes=6, vnodes=80)
    assert len(rep.wynn_orders) == 6
    for row in rep.wynn_orders:
        assert len(row) == len(rep.probes)
        # a 9-term window allows at most 8 epsilon steps
        assert all(isinstance(k, int) and 2 <= k <= 8 for k in row)
    # below J = 2 there is no completion: order 0 and the raw errors
    raw = heisenberg_inversion_check(J=1, lam_nodes=6, vnodes=80)
    assert raw.wynn_orders == ((0,) * len(raw.probes),) * 6
    assert raw.rel_errors == raw.raw_rel_errors


def test_projection_cross_terms_vanish():
    rep = projection_check(1.1, 0, 2)
    assert rep.cross_max <= 1e-10


def test_projection_diagonal_reproduces():
    r00 = projection_check(1.1, 0, 0)
    r11 = projection_check(1.1, 1, 1)
    assert r11.proportionality_residual <= 1e-10
    # c' does not depend on the index
    assert abs(r11.cprime / r00.cprime - 1.0) < 1e-10
    # and scales like lam^{-n}
    r2 = projection_check(2.2, 0, 0)
    assert abs(r00.cprime / r2.cprime - 2.0) < 1e-10
    with pytest.raises(ValueError):
        projection_check(-1.0, 0, 0)


def test_projection_rejects_points_off_c1():
    with pytest.raises(ValueError):
        projection_check(1.1, 0, 0, points=np.zeros((3, 4)))


def test_projection_rejects_empty_points():
    with pytest.raises(ValueError, match="points is empty"):
        projection_check(1.1, 0, 0, points=np.empty((0, 2)))


def _phi(lam, k):
    # the Laguerre function of frequency lam on complex points (P, 1)
    def phi(w):
        x = lam * np.abs(w[:, 0]) ** 2 / 2.0
        return eval_laguerre(k, x) * np.exp(-x / 2.0)
    return phi


@pytest.mark.parametrize("lam", [0.3, 1.1, 2.2, 5.0])
def test_projection_matches_twisted_convolution_oracle(lam):
    # the separable projection_check against the generic 2-d twisted
    # convolution on the same 120^2 rule, on its 20 seeded points and
    # on explicit ones
    seeded = as_rng(0).normal(scale=1.0 / np.sqrt(lam), size=(20, 2))
    seeded[0] = 0.0
    explicit = np.array([[0.0, 0.0], [0.4, -0.3], [1.2, 0.5], [-0.7, 0.9], [2.0, -1.5]])
    for i in range(4):
        for j in range(4):
            half = np.sqrt((37.0 + 4.0 * max(i, j)) / (lam / 4.0))
            conv = twisted_convolution(_phi(lam, i), _phi(lam, j), lam,
                                       QuadratureSpec.cube(120, half, 2))
            for pts, kw in ((seeded, {}), (explicit, {"points": explicit})):
                rep = projection_check(lam, i, j, **kw)
                z = pts[:, :1] + 1j * pts[:, 1:]
                ref = conv(z)
                tol = 1e-13 * max(1.0, np.max(np.abs(ref)))
                if i != j:
                    assert abs(rep.cross_max - np.max(np.abs(ref))) <= tol, (i, j)
                    continue
                phij = _phi(lam, j)(z)
                cref = np.real(ref[0]) / phij[0]
                assert abs(rep.cprime - cref) * phij[0] <= tol, j
                resid = np.max(np.abs(ref - cref * phij)) / np.max(np.abs(phij))
                assert abs(rep.proportionality_residual - resid) * np.max(np.abs(phij)) <= tol, j


def test_twisted_laguerre_matches_twisted_convolution_oracle():
    # a Laguerre-Gaussian whose width is not the one of phi_i, so the
    # integral is no projection, against the 2-d oracle at frequency
    # -lam (the phase of _twisted_laguerre)
    lam, beta, J, nodes, half = 1.7, 0.9, 4, 100, 9.0
    vs = np.array([[0.0, 0.0], [0.5, -0.2], [-1.1, 0.7], [1.6, 1.3]])
    spec = QuadratureSpec.cube(nodes, half, 2)
    for i in (0, 1, 3):
        got = _twisted_laguerre(lam, i, beta, vs, J, nodes, half)
        assert got.shape == (J + 1, len(vs))

        def f(w, i=i):
            x = np.abs(w[:, 0]) ** 2
            return eval_laguerre(i, lam * x / 2.0) * np.exp(-beta * x)

        for j in range(J + 1):
            ref = twisted_convolution(f, _phi(lam, j), -lam, spec)(vs[:, :1] + 1j * vs[:, 1:])
            assert np.max(np.abs(got[j] - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref))), (i, j)


def test_twisted_laguerre_over_a_stack_of_frequencies():
    # one call on 3 frequencies and half-widths is the 3 scalar calls
    lams, halfs = np.array([0.4, 1.7, 5.2]), np.array([11.0, 9.0, 6.5])
    vs = np.array([[0.0, 0.0], [0.5, -0.2], [-1.1, 0.7]])
    for i in (0, 1, 3):
        got = _twisted_laguerre(lams, i, 0.9, vs, 5, 60, halfs)
        assert got.shape == (6, 3, len(vs))
        want = np.stack([_twisted_laguerre(lam, i, 0.9, vs, 5, 60, half)
                         for lam, half in zip(lams, halfs)], axis=1)
        assert np.array_equal(got, want), i


def test_general_inversion_probe_consistent():
    rep = general_inversion_probe(J=12, lam_max=10.0, lam_nodes=16, samples=800, seed=3)
    assert rep.consistent()
    assert rep.spread < 0.02 * abs(rep.ratios[0])


@pytest.mark.parametrize("bad", [{"J": -1}, {"lam_nodes": 0}, {"samples": 0}, {"samples": 1}]
                         + BAD_LAM_MAX)
def test_general_inversion_probe_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        general_inversion_probe(**bad)


@pytest.mark.parametrize("widths", [
    (((0.8, 1.0, 1.3), 1.0), ((1.2, 0.0, 0.7), 0.6)),
    (((0.8, 1.0, 1.3), -1.0), ((1.2, 0.9, 0.7), 0.6)),
    (((0.8, 1.0, float("nan")), 1.0), ((1.2, 0.9, 0.7), 0.6)),
])
def test_general_inversion_probe_rejects_bad_widths(widths):
    # as heisenberg_inversion_check does: the Gaussian integrals need
    # positive widths
    with pytest.raises(ValueError, match="widths must be positive"):
        general_inversion_probe(width_specs=widths)


@pytest.mark.parametrize("widths", [
    # a length-1 a broadcast against the 3 z-coordinates would integrate
    # the wrong Gaussian
    (((1.0,), 1.0), ((1.0, 1.0, 1.0), 1.0)),
    # the report compares exactly two ratios
    (((1.0, 1.0, 1.0), 1.0),),
    (((1.0, 1.0, 1.0), 1.0),) * 3,
])
def test_general_inversion_probe_rejects_malformed_width_specs(widths):
    with pytest.raises(ValueError, match="two width pairs"):
        general_inversion_probe(width_specs=widths, J=12, lam_nodes=16, samples=400)


def test_general_inversion_probe_builds_one_form_per_call(monkeypatch):
    # Y = e_1 against the three coordinates: one set of forms for both
    # widths and all three nodes, where each node pairs two blocks
    calls = _count_calls(monkeypatch, "kronecker_forms")
    general_inversion_probe(J=6, lam_nodes=3, samples=orbit_block(4) + 1, seed=2)
    assert [np.shape(z) for _, z in calls] == [(3, 3)]


@pytest.mark.parametrize("seed", [0, 4])
def test_probe_node_in_blocks_is_the_one_stack_integrand(seed):
    # one node of 2,500 samples, a full block of 2,048 and a partial one:
    # the integrand built here from one stack of all the samples
    alg = build_case("I", n=1)
    avec, b, J, lam_max, samples = np.array([0.8, 1.0, 1.3]), 1.0, 9, 12.0, 2500
    forms = alg.kronecker_forms(np.array([1.0, 0.0, 0.0]), np.eye(3))
    got = _probe_one_width(alg, forms, avec, b, J, lam_max, 1, samples, seed)
    # the one Gauss-Legendre node on [0, lam_max]
    r, wk = lam_max / 2.0, lam_max
    u = alg.pair_forms(alg.ops.sample_vmats(as_rng((seed, 0)), samples), forms)
    zint = np.prod(np.sqrt(np.pi / avec)) * np.exp(-(r**2) * np.sum(u**2 / (4.0 * avec), axis=1))
    mean, sem = mc_mean(zint)
    js = np.arange(J + 1)
    dims = np.array([fock.homog_dim(2, j) for j in js], dtype=float)
    p, q = b + r / 4.0, b - r / 4.0
    weight = wk * 4.0 * r**4 * float(np.pi**2 * np.sum(dims * q**js / p ** (js + 2)))
    assert got == (float(weight * mean), float(abs(weight * sem)))


def test_general_inversion_probe_error_shrinks_with_samples():
    lo = general_inversion_probe(J=8, lam_max=10.0, lam_nodes=8, samples=400, seed=5)
    hi = general_inversion_probe(J=8, lam_max=10.0, lam_nodes=8, samples=1600, seed=5)
    ratio = lo.combined_sigma / hi.combined_sigma
    assert 1.5 < ratio < 3.0
