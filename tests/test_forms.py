"""Skew forms, Pfaffians, the classifier, and the weight tables."""

import numpy as np
import pytest

from nilharm import cli, fock, torus
from nilharm.algebra import build_case, sample_k_actions
from nilharm.forms import (
    Functional,
    _pfaffian_of,
    classify,
    functional,
    pfaffian_abs,
    pfaffian_via_weights,
    skew_form,
    weight_table,
)
from nilharm.numerics import as_rng
from nilharm.plancherel import density_of


def test_pfaffian_2x2_and_4x4():
    a = np.array([[0.0, 3.0], [-3.0, 0.0]])
    assert abs(pfaffian_abs(a) - 3.0) < 1e-14
    # 4x4: |Pf| = |a f - b e + c d| for the upper-triangle (a,b,c,d,e,f)
    rng = as_rng(0)
    for _ in range(20):
        a, b, c, d, e, f = rng.standard_normal(6)
        m = np.array([
            [0, a, b, c],
            [-a, 0, d, e],
            [-b, -d, 0, f],
            [-c, -e, -f, 0],
        ])
        ref = abs(a * f - b * e + c * d)
        assert abs(pfaffian_abs(m) - ref) < 1e-12 * max(1.0, ref)


def test_pfaffian_squares_to_determinant():
    rng = as_rng(1)
    for n in (2, 4, 6, 8):
        a = rng.standard_normal((n, n))
        m = a - a.T
        det = np.linalg.det(m)
        assert abs(pfaffian_abs(m) ** 2 - det) < 1e-10 * max(1.0, abs(det))


def test_pfaffian_odd_dimension_vanishes():
    rng = as_rng(2)
    a = rng.standard_normal((5, 5))
    m = a - a.T
    assert pfaffian_abs(m) == 0.0


def test_pfaffian_abs_agrees_with_the_spectrum_on_the_catalog():
    # one LU (slogdet) against the product of the upper half of the
    # spectrum of 1j B_x, which Functional.verdict keeps
    rng = as_rng(7)
    for case, params in FAMILIES:
        alg = build_case(case, **params)
        for _ in range(5):
            m = skew_form(alg, rng.standard_normal(alg.dim_g))
            got = pfaffian_abs(m)
            if alg.dim_v % 2:
                assert got == 0.0
                continue
            ref = _pfaffian_of(np.linalg.eigvalsh(1j * m))
            assert ref > 0 and abs(got - ref) <= 1e-12 * ref, (case, params)


def test_pfaffian_abs_does_not_overflow_and_checks_its_input():
    # det = 1e400 overflows, its logarithm does not
    big = pfaffian_abs(np.array([[0.0, 1e200], [-1e200, 0.0]]))
    assert np.isfinite(big) and abs(big - 1e200) <= 1e-12 * 1e200
    assert pfaffian_abs(np.zeros((4, 4))) == 0.0
    assert pfaffian_abs(np.zeros((0, 0))) == 1.0
    for bad in (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="square matrix"):
            pfaffian_abs(bad)


def test_pfaffian_abs_rejects_a_matrix_that_is_not_skew():
    # sqrt |det| is no Pfaffian off the skew matrices: diag(1, 4) gave 2.0
    for bad in ([[1.0, 0.0], [0.0, 4.0]], [[0.0, 2.0], [3.0, 0.0]], np.eye(3),
                [[0.0, np.nan], [0.0, 0.0]], [[0.0, np.inf], [-np.inf, 0.0]]):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="skew-symmetric"):
            pfaffian_abs(bad)
    # rounding-level asymmetry passes, relative to the largest entry
    m = np.array([[0.0, 3.0e5], [-3.0e5 * (1 + 1e-15), 0.0]])
    assert abs(pfaffian_abs(m) - 3.0e5) <= 1e-12 * 3.0e5
    # every skew form of the catalog is skew to the bit
    rng = as_rng(11)
    for case, params in FAMILIES:
        alg = build_case(case, **params)
        m = skew_form(alg, rng.standard_normal(alg.dim_g))
        assert np.max(np.abs(m + m.T), initial=0.0) == 0.0, (case, params)
        pfaffian_abs(m)


def test_skew_form_matches_bracket_pairing():
    alg = build_case("V", n=3)
    rng = as_rng(3)
    x = rng.standard_normal(alg.dim_g)
    m = skew_form(alg, x)
    u = rng.standard_normal(alg.dim_v)
    v = rng.standard_normal(alg.dim_v)
    assert abs(float(u @ m @ v) - float(alg.bracket(v, u) @ x)) < 1e-12


def test_classifier_exceptions_degenerate():
    rng = as_rng(4)
    for case, params in [("II", {"n": 1}), ("II", {"n": 2}), ("VI", {"n": 3}), ("VI", {"n": 5})]:
        alg = build_case(case, **params)
        for _ in range(10):
            x = rng.standard_normal(alg.dim_g)
            verdict = classify(alg, x)
            assert not verdict.square_integrable
            assert verdict.kernel_dim >= 1
            assert verdict.pfaffian == 0.0
            assert verdict.verdict == "Degenerate"


def test_classifier_generic_square_integrable():
    rng = as_rng(5)
    for case, params in [
        ("I", {"n": 1}), ("III", {"k1": 1, "k2": 1}), ("IV", {"n": 1}),
        ("V", {"n": 3}), ("VI", {"n": 2}), ("VII", {"n": 3}),
        ("VIII", {"k": 1, "n": 1}), ("IX", {"n": 3}), ("X", {"m": 3, "k": 1, "n": 0}),
    ]:
        alg = build_case(case, **params)
        for _ in range(5):
            x = rng.standard_normal(alg.dim_g)
            verdict = classify(alg, x)
            assert verdict.square_integrable, f"{case} {params}"
            assert verdict.verdict == "SquareIntegrable"


def test_degenerate_pfaffian_and_density_are_exactly_zero():
    # a singular chamber point of V(3): two weights cancel, so rounding
    # leaves tiny positive kernel eigenvalues whose product must not
    # show up as |Pf|
    alg = build_case("V", n=3)
    x = alg.from_chamber(([0.7, 0.0, -0.7],), None)
    verdict = classify(alg, x)
    assert verdict.kernel_dim == 2 and not verdict.square_integrable
    assert verdict.pfaffian == 0.0
    assert density_of(alg, x).value == 0.0
    # the weight formula reads the same zero
    assert pfaffian_via_weights(alg, x) == 0.0


def test_zero_functional_degenerate():
    alg = build_case("I", n=1)
    assert not classify(alg, np.zeros(alg.dim_g)).square_integrable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_functional_raises(bad):
    # a nan functional used to classify as square integrable with |Pf| 0
    alg = build_case("VII", n=1)
    with pytest.raises(ValueError, match="finite"):
        classify(alg, [bad])
    with pytest.raises(ValueError, match="finite"):
        Functional(alg, [bad])
    with pytest.raises(ValueError, match="finite"):
        density_of(alg, [bad])


@pytest.mark.parametrize("case,params", [
    ("I", {"n": 2}), ("V", {"n": 3}), ("VII", {"n": 3}), ("IX", {"n": 3}),
    ("III", {"k1": 1, "k2": 1}), ("IV", {"n": 1}), ("VI", {"n": 6}), ("VIII", {"k": 1, "n": 1}),
    ("VIII", {"k": 2, "n": 2}), ("X", {"m": 3, "k": 1, "n": 0}),
])
def test_weight_formula_matches_numeric(case, params):
    alg = build_case(case, **params)
    rng = as_rng(6)
    for _ in range(20):
        x = rng.standard_normal(alg.dim_g)
        numeric = classify(alg, x).pfaffian
        weights = pfaffian_via_weights(alg, x)
        assert abs(numeric - weights) < 1e-9 * max(numeric, weights)


def test_weight_table_multiplicities():
    # one weight per complex coordinate of V
    for case, params in [("I", {"n": 2}), ("V", {"n": 3}), ("VII", {"n": 3}), ("IX", {"n": 3})]:
        alg = build_case(case, **params)
        rng = as_rng(7)
        x = rng.standard_normal(alg.dim_g)
        table = weight_table(alg, x)
        assert table.shape == (alg.dim_v // 2,)


def test_weight_table_unavailable_raises():
    # V is not complex: dim V is odd
    for case, params in [("II", {"n": 1}), ("VI", {"n": 3})]:
        alg = build_case(case, **params)
        assert alg.ops.has_weights is False
        with pytest.raises(NotImplementedError):
            weight_table(alg, np.ones(alg.dim_g))


# every case with complex V, at least two parameter sets each
COMPLEX_V_CASES = [
    ("I", {"n": 1}), ("I", {"n": 2}),
    ("III", {"k1": 1, "k2": 1}), ("III", {"k1": 0, "k2": 2}), ("III", {"k1": 2, "k2": 1}),
    ("IV", {"n": 1}), ("IV", {"n": 2}),
    ("V", {"n": 3}), ("V", {"n": 4}),
    ("VI", {"n": 2}), ("VI", {"n": 4}), ("VI", {"n": 6}),
    ("VII", {"n": 1}), ("VII", {"n": 3}),
    ("VIII", {"k": 1, "n": 0}), ("VIII", {"k": 1, "n": 1}), ("VIII", {"k": 2, "n": 2}),
    ("IX", {"n": 3}), ("IX", {"n": 4}),
    ("X", {"m": 3, "k": 1, "n": 0}), ("X", {"m": 3, "k": 2, "n": 1}),
]


@pytest.mark.parametrize("case,params", COMPLEX_V_CASES,
                         ids=[f"{c}-{'-'.join(map(str, p.values()))}" for c, p in COMPLEX_V_CASES])
def test_coord_weights_are_the_blocks_of_pi_h(case, params):
    # pi(h) of the chamber element h is 2 x 2 block diagonal in the
    # interleaved complex coordinates, multiplication by 1j mu_a on
    # coordinate a, and constant on each run of fock.kx_blocks
    alg = build_case(case, **params)
    assert alg.ops.has_weights is True
    runs = fock.kx_blocks(case, params)
    rng = as_rng(9)
    for _ in range(5):
        fn = functional(alg, rng.standard_normal(alg.dim_g))
        ph = alg.pi_of(alg.from_chamber(*fn.chamber[:2]))
        mu = weight_table(alg, fn)
        off_block = ~np.kron(np.eye(alg.dim_v // 2), np.ones((2, 2))).astype(bool)
        assert np.all(ph[off_block] == 0.0)
        diag = ph[1::2, 0::2].diagonal()
        tol = 1e-12 * max(1.0, np.abs(mu).max())
        assert np.max(np.abs(mu - diag)) <= tol
        if runs:
            for run in np.split(diag, np.cumsum(runs)[:-1]):
                assert run.size == 0 or np.ptp(run) <= tol


def test_case_vii_pfaffian_power_law():
    alg = build_case("VII", n=3)
    assert abs(classify(alg, np.array([2.0])).pfaffian - 8.0) < 1e-12
    assert abs(classify(alg, np.array([-0.5])).pfaffian - 0.125) < 1e-12


def test_functional_polar_data():
    alg = build_case("V", n=3)
    rng = as_rng(8)
    x = rng.standard_normal(alg.dim_g)
    fn = Functional(alg, x)
    assert abs(fn.norm - np.linalg.norm(x)) < 1e-13
    assert np.allclose(fn.y * fn.norm, x)
    angles, zc, regular = fn.chamber
    assert regular
    ang = angles[0]
    assert np.all(np.diff(ang) <= 1e-12)  # dominant order
    with pytest.raises(ValueError):
        Functional(alg, np.ones(3))


def test_pfaffian_ad_invariant_spot():
    rng = as_rng(9)
    for case, params in [("I", {"n": 2}), ("IX", {"n": 3}), ("VIII", {"k": 1, "n": 1})]:
        alg = build_case(case, **params)
        x = rng.standard_normal(alg.dim_g)
        base = classify(alg, x).pfaffian
        for k in sample_k_actions(alg, rng=rng, count=10):
            moved = classify(alg, k.apply_functional(x)).pfaffian
            assert abs(moved - base) < 1e-9 * base


# every family the tests build, the exception list (II, odd VI) included
FAMILIES = [
    ("I", {"n": 1}), ("I", {"n": 2}), ("II", {"n": 1}), ("II", {"n": 2}),
    ("III", {"k1": 1, "k2": 1}), ("IV", {"n": 1}), ("V", {"n": 3}), ("V", {"n": 4}),
    ("VI", {"n": 2}), ("VI", {"n": 3}), ("VI", {"n": 4}), ("VI", {"n": 5}),
    ("VII", {"n": 1}), ("VII", {"n": 3}), ("VIII", {"k": 1, "n": 0}),
    ("VIII", {"k": 1, "n": 1}), ("IX", {"n": 3}), ("X", {"m": 3, "k": 1, "n": 0}),
]
FAMILY_IDS = [c + "".join(str(v) for v in p.values()) for c, p in FAMILIES]


def _sweep_points(alg, rng):
    """Random functionals, the basis vectors and zero, and boundary
    chamber points (a repeated angle, a zero angle, all angles zero),
    each with zero and random central part."""
    xs = list(rng.standard_normal((10, alg.dim_g))) + list(np.eye(alg.dim_g)) + [np.zeros(alg.dim_g)]
    rs = alg.root_system()
    if alg.dim_gp and not rs.factors:
        return xs
    for kind in ("repeat", "zero", "origin"):
        H = []
        for f in rs.factors:
            a = rng.uniform(-1.0, 1.0, f.angle_len)
            if kind == "repeat" and len(a) > 1:
                a[-2] = a[-1]
            elif kind == "zero":
                a[-1] = 0.0
            elif kind == "origin":
                a[:] = 0.0
            if f.kind == "su":
                a[0] -= a.sum()
            H.append(a)
        for z in (np.zeros(alg.dim_c), rng.uniform(-1.0, 1.0, alg.dim_c)):
            xs.append(alg.from_chamber(tuple(H) if H else None, z))
    return xs


# the families whose g' has a Cartan chamber: all but VII, VI(2) and odd VI
CHAMBERED = [(f, i) for f, i in zip(FAMILIES, FAMILY_IDS) if i not in ("VI2", "VI3", "VI5", "VII1", "VII3")]


@pytest.mark.parametrize("case,params", [f for f, _ in CHAMBERED], ids=[i for _, i in CHAMBERED])
def test_from_chamber_inverts_the_chart(case, params):
    # the functional y rebuilt from the chart of x has the chart, the
    # verdict, |Pf| and density of x: random, basis, zero and boundary
    # (non-regular) chamber points, each at scales 1, 1e-6 and 1e6
    alg = build_case(case, **params)
    num_roots = sum(len(f.roots) for f in alg.root_system().factors)
    for x0 in _sweep_points(alg, as_rng(15)):
        for x in (x0, 1e-6 * x0, 1e6 * x0):
            fx = Functional(alg, x)
            ax, zx, rx = fx.chamber
            fy = Functional(alg, alg.from_chamber(ax, zx))
            ay, zy, ry = fy.chamber
            assert ry == rx and np.array_equal(zy, zx)
            for a, b in zip(ax, ay):
                assert np.max(np.abs(b - a)) <= 1e-13 * fx.norm
            vx, vy = classify(alg, fx.x), classify(alg, fy.x)
            assert (vy.square_integrable, vy.kernel_dim) == (vx.square_integrable, vx.kernel_dim)
            dx, dy = density_of(alg, fx).value, density_of(alg, fy).value
            if not vx.square_integrable:
                # a degenerate functional has |Pf| and density exactly 0
                assert vx.pfaffian == vy.pfaffian == dx == dy == 0.0
                continue
            assert abs(vy.pfaffian - vx.pfaffian) <= 1e-12 * vx.pfaffian
            # theta off the regular set is a vanishing factor times
            # rounding, so it is compared with the size (2 |x|)^#roots of
            # its other factors
            size = dx if rx else vx.pfaffian * (2.0 * fx.norm) ** num_roots
            assert abs(dy - dx) <= 1e-12 * size


def _svd_nullity(m, tol=1e-10):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s <= tol * s[0]))


@pytest.mark.parametrize("case,params", FAMILIES, ids=FAMILY_IDS)
def test_kernel_dim_matches_svd_nullity(case, params):
    alg = build_case(case, **params)
    for x in _sweep_points(alg, as_rng(10)):
        v = classify(alg, x)
        assert v.kernel_dim == _svd_nullity(skew_form(alg, x)), x
        assert v.square_integrable == (v.kernel_dim == 0)


@pytest.mark.parametrize("case,params", FAMILIES, ids=FAMILY_IDS)
def test_verdict_and_regularity_are_scale_invariant(case, params):
    alg = build_case(case, **params)
    charted = not (alg.dim_gp and not alg.root_system().factors)
    for x in _sweep_points(alg, as_rng(11)):
        base = classify(alg, x)
        regular = Functional(alg, x).chamber[2] if charted else None
        for scale in (1e-12, 1e6):
            moved = classify(alg, scale * x)
            assert (moved.square_integrable, moved.kernel_dim) == (base.square_integrable, base.kernel_dim)
            if charted:
                assert Functional(alg, scale * x).chamber[2] == regular


@pytest.mark.parametrize("case,params", FAMILIES, ids=FAMILY_IDS)
def test_pfaffian_is_homogeneous_of_degree_half_dim_v(case, params):
    alg = build_case(case, **params)
    rng = as_rng(12)
    for x in rng.standard_normal((5, alg.dim_g)):
        base = pfaffian_abs(skew_form(alg, x))
        for t in (1e-3, 2.5, 1e4):
            ref = t ** (alg.dim_v / 2) * base
            assert abs(pfaffian_abs(skew_form(alg, t * x)) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("case,params", [
    ("I", {"n": 2}), ("III", {"k1": 1, "k2": 1}), ("IV", {"n": 1}), ("V", {"n": 3}),
    ("VI", {"n": 4}), ("VII", {"n": 2}), ("VIII", {"k": 1, "n": 1}), ("IX", {"n": 3}),
    ("X", {"m": 3, "k": 1, "n": 0}),
], ids=["I2", "III11", "IV1", "V3", "VI4", "VII2", "VIII11", "IX3", "X310"])
def test_density_and_weight_pfaffian_are_k_invariant(case, params):
    alg = build_case(case, **params)
    rng = as_rng(13)
    x = rng.standard_normal(alg.dim_g)
    dens = density_of(alg, x).value
    weights = pfaffian_via_weights(alg, x) if alg.ops.has_weights else None
    for k in sample_k_actions(alg, rng=rng, count=8):
        kx = k.apply_functional(x)
        assert abs(density_of(alg, kx).value - dens) <= 1e-9 * dens
        if weights is not None:
            assert abs(pfaffian_via_weights(alg, kx) - weights) <= 1e-9 * weights


def test_one_chart_per_call_and_one_root_system_per_algebra(monkeypatch, capsys):
    charts, builds = [], []
    to_chamber, root_system = torus.to_chamber, torus.root_system
    monkeypatch.setattr(torus, "to_chamber", lambda *a: charts.append(1) or to_chamber(*a))
    monkeypatch.setattr(torus, "root_system", lambda *a: builds.append(1) or root_system(*a))
    rng = as_rng(14)
    for case, params in [("V", {"n": 3}), ("IX", {"n": 3}), ("VIII", {"k": 1, "n": 1})]:
        alg = build_case(case, **params)
        for x in rng.standard_normal((3, alg.dim_g)):
            charts.clear()
            density_of(alg, x)
            assert len(charts) == 1
            # the same coordinates share the Functional and its chart
            pfaffian_via_weights(alg, x)
            assert len(charts) == 1
        angles, zc, _ = Functional(alg, x).chamber
        alg.from_chamber(angles, zc)
        assert len(builds) == 1, case
        builds.clear()
    # nilharm density charts each row once, for its columns and theta
    charts.clear()
    assert cli.main(["density", "--case", "V", "--n", "3", "--points", "4"]) == 0
    assert len(charts) == 4


@pytest.mark.parametrize("case,params", [("V", {"n": 3}), ("VII", {"n": 2}), ("VIII", {"k": 1, "n": 1})])
def test_classify_then_density_take_one_spectrum_of_b_x(monkeypatch, case, params):
    alg = build_case(case, **params)
    x = as_rng(15).standard_normal(alg.dim_g)
    ibx = 1j * skew_form(alg, x)
    spectra = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        if np.shape(a) == ibx.shape and np.array_equal(a, ibx):
            spectra.append(1)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    verdict = classify(alg, x)
    dens = density_of(alg, x)
    assert len(spectra) == 1
    assert dens.pfaffian == verdict.pfaffian and dens.square_integrable == verdict.square_integrable


def _answers(alg, x):
    return classify(alg, x), pfaffian_via_weights(alg, x), density_of(alg, x)


def _fresh(alg, x):
    # a new Functional, passed on, never the algebra's slot
    fn = Functional(alg, x)
    return fn.verdict, pfaffian_via_weights(alg, fn), density_of(alg, fn)


def test_shared_functional_is_never_stale():
    alg = build_case("V", n=3)
    x1, x2 = as_rng(16).standard_normal((2, alg.dim_g))
    for x in (x1, x2, x1):
        assert _answers(alg, x) == _fresh(alg, x)
    # writing into the caller's array after a call gives the new answer
    buf = x1.copy()
    first = _answers(alg, buf)
    buf[:] = x2
    assert _answers(alg, buf) == _fresh(alg, x2) != first
    buf *= 2.0
    assert _answers(alg, buf) == _fresh(alg, 2.0 * x2)
    # -0.0 and +0.0 are different coordinates
    pos = x1.copy()
    pos[0] = 0.0
    neg = pos.copy()
    neg[0] = -0.0
    fpos = functional(alg, pos)
    fneg = functional(alg, neg)
    assert fneg is not fpos and np.signbit(fneg.x[0]) and not np.signbit(fpos.x[0])
    # a Functional is returned as it is, the slot only for equal bytes
    assert functional(alg, fpos) is fpos and functional(alg, neg) is fneg
    with pytest.raises(ValueError, match="another algebra"):
        functional(build_case("V", n=3), fneg)
    # a non-finite or misshapen x raises and leaves the slot as it was
    for bad in (np.where(np.arange(alg.dim_g) == 1, np.nan, x1), np.full(alg.dim_g, np.inf), neg[None]):
        for call in (classify, pfaffian_via_weights, density_of):
            with pytest.raises(ValueError):
                call(alg, bad)
        assert alg.last_functional is fneg
    # the shared coordinates are read-only
    for arr in (fneg.x, fneg.y):
        with pytest.raises(ValueError):
            arr[0] = 1.0
