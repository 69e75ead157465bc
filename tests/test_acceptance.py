"""Acceptance suite: thirteen desk-scale verifications of the
classification, Plancherel, and spherical-function machinery.

Each test prints one PASS/FAIL line with the measured figure so the
scoreboard survives pytest output capture."""

import time
import zlib

import numpy as np
from scipy.special import comb, factorial

from nilharm import (
    build_case,
    classify,
    fock,
    general_inversion_probe,
    heisenberg_inversion_check,
    pfaffian_abs,
    pfaffian_via_weights,
    projection_check,
    skew_form,
    torus,
)
from nilharm.algebra import OrthAutomorphism, sample_k_actions
from nilharm.numerics import QuadratureSpec, as_rng
from nilharm.spherical import (
    SphericalIndex,
    canonical_polynomials,
    functional_equation_residual,
    phi,
    phi_caseI_closed,
    phi_orbit,
    psi_closed,
    spherical_index,
)
from _oracles import chamber_jacobian_fd

# the tested instances of each classified family
CASES = (
    ("I", {"n": 1}),
    ("I", {"n": 2}),
    ("III", {"k1": 1, "k2": 1}),
    ("IV", {"n": 1}),
    ("V", {"n": 3}),
    ("VI", {"n": 2}),
    ("VI", {"n": 3}),
    ("VII", {"n": 1}),
    ("VII", {"n": 2}),
    ("VII", {"n": 3}),
    ("VIII", {"k": 1, "n": 0}),
    ("VIII", {"k": 1, "n": 1}),
    ("IX", {"n": 3}),
    ("X", {"m": 3, "k": 1, "n": 0}),
)

DEGENERATE_CASES = (("II", {"n": 1}), ("VI", {"n": 3}))


def _report(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_01_bracket_pairing_identity(capsys):
    t0 = time.monotonic()
    rng = as_rng(101)
    worst = 0.0
    for case, params in CASES:
        alg = build_case(case, **params)
        u = rng.standard_normal((100, alg.dim_v))
        v = rng.standard_normal((100, alg.dim_v))
        x = rng.standard_normal((100, alg.dim_g))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        lhs = np.einsum("px,px->p", alg.bracket(u, v), x)
        rhs = np.einsum("xij,px,pj,pi->p", alg.pi, x, u, v)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    dt = time.monotonic() - t0
    ok = worst <= 1e-12 and dt < 10.0
    _report(capsys, ok, "criterion 1 bracket identity",
            f"max |<[u,v],X> - <pi(X)u,v>| = {worst:.3e} over {len(CASES)} cases, {dt:.1f} s")


def test_criterion_02_square_integrability_classifier(capsys):
    t0 = time.monotonic()
    rng = as_rng(102)
    bad = []
    for case, params in DEGENERATE_CASES:
        alg = build_case(case, **params)
        for _ in range(20):
            verdict = classify(alg, rng.standard_normal(alg.dim_g))
            if verdict.verdict != "Degenerate":
                bad.append((case, params, verdict.verdict))
    si_cases = [cp for cp in CASES if cp != ("VI", {"n": 3})]
    for case, params in si_cases:
        alg = build_case(case, **params)
        for _ in range(20):
            verdict = classify(alg, rng.standard_normal(alg.dim_g))
            if verdict.verdict != "SquareIntegrable":
                bad.append((case, params, verdict.verdict))
    dt = time.monotonic() - t0
    ok = not bad and dt < 5.0
    _report(capsys, ok, "criterion 2 classifier",
            f"exception list reproduced over {20 * (len(DEGENERATE_CASES) + len(si_cases))}"
            f" functionals, mismatches {bad}, {dt:.1f} s")


def test_criterion_03_pfaffian_ad_invariance(capsys):
    t0 = time.monotonic()
    rng = as_rng(103)
    worst = 0.0
    for case, params in CASES:
        alg = build_case(case, **params)
        x = rng.standard_normal(alg.dim_g)
        x /= np.linalg.norm(x)
        base = pfaffian_abs(skew_form(alg, x))
        for k in sample_k_actions(alg, rng, count=100):
            pf = pfaffian_abs(skew_form(alg, k.apply_functional(x)))
            dev = abs(pf - base) / base if base > 1e-12 else abs(pf)
            worst = max(worst, dev)
    dt = time.monotonic() - t0
    ok = worst < 1e-9 and dt < 30.0
    _report(capsys, ok, "criterion 3 Pfaffian Ad-invariance",
            f"max rel dev = {worst:.3e} over 100+ conjugations x {len(CASES)} cases, {dt:.1f} s")


def test_criterion_04_weight_formula_pfaffian(capsys):
    t0 = time.monotonic()
    rng = as_rng(104)
    worst = 0.0
    for case, params in (("I", {"n": 1}), ("V", {"n": 3}), ("VII", {"n": 2}), ("IX", {"n": 3})):
        alg = build_case(case, **params)
        rs = alg.root_system()
        for _ in range(50):
            angles = []
            for f in rs.factors:
                a = rng.uniform(-1.5, 1.5, f.angle_len)
                if f.kind == "su":
                    a -= a.mean()
                angles.append(a)
            zc = rng.standard_normal(alg.dim_c)
            xp = alg.ops.embed_angles(tuple(angles)) if alg.dim_gp else np.zeros(0)
            x = alg.join_center(xp, zc)
            nb = pfaffian_abs(skew_form(alg, x))
            wt = pfaffian_via_weights(alg, x)
            worst = max(worst, abs(nb - wt) / max(nb, wt, 1e-300))
    dt = time.monotonic() - t0
    ok = worst < 1e-9 and dt < 10.0
    _report(capsys, ok, "criterion 4 weight-formula Pfaffian",
            f"max rel dev = {worst:.3e} on 50 random (H,Z) x 4 cases, {dt:.1f} s")


def test_criterion_05_theta_vs_fd_jacobian(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for spec in ("su(2)", "su(3)", "so(4)"):
        rng = as_rng(zlib.crc32(spec.encode()))
        f = torus.root_system(spec).factors[0]
        checked = 0
        while checked < 50:
            raw = rng.uniform(0.3, 1.5, size=f.angle_len) * rng.choice([-1.0, 1.0], size=f.angle_len)
            if f.kind == "su":
                raw -= raw.mean()
            if not f.is_regular(raw):
                continue
            det = chamber_jacobian_fd(f, raw)
            ref = f.theta(raw)
            worst = max(worst, abs(det - ref) / ref)
            checked += 1
    dt = time.monotonic() - t0
    ok = worst < 1e-5 and dt < 30.0
    _report(capsys, ok, "criterion 5 theta vs FD Jacobian",
            f"max rel dev = {worst:.3e} on 50 regular points x 3 factors, {dt:.1f} s")


def test_criterion_06_fock_oracle_agreement(capsys):
    t0 = time.monotonic()
    rng = as_rng(106)
    worst = 0.0
    for case, n in (("VII", 1), ("VII", 2), ("I", 1)):
        nc = n if case == "VII" else 2 * n
        basis = fock.FockBasis(nc, 25)
        for lam in (0.5, 1.0, 2.0):
            for _ in range(3):
                t = float(rng.standard_normal())
                v = rng.standard_normal(2 * nc)
                v *= rng.uniform(0.2, 2.0) / np.linalg.norm(v)
                mat = fock.pi_matrix(lam, t, v, basis)
                for j in range(4):
                    sl = basis.degree_slice(j)
                    tr = complex(np.trace(mat[sl, sl]))
                    closed = psi_closed(SphericalIndex(case, lam, (j,), {"n": n}), t, v)
                    series = fock.psi_numeric(case, lam, j, t, v)
                    worst = max(worst, abs(closed - tr), abs(closed - series))
    dt = time.monotonic() - t0
    ok = worst < 1e-6 and dt < 60.0
    _report(capsys, ok, "criterion 6 Fock oracle",
            f"max |closed - trace(D=25)| = {worst:.3e} for j<=3, |v|<=2, lam in {{0.5,1,2}}, {dt:.1f} s")


def _coefficient_table(lam, basis, vc):
    # T[m, r, p] = <pi_lam(0, v_p) e_m, e_r>, one stacked pi_matrix per
    # grid, laid out contiguously: einsum's sums follow the memory layout
    return np.ascontiguousarray(np.transpose(fock.pi_matrix(lam, 0.0, vc, basis), (2, 1, 0)))


def test_criterion_07_matrix_coefficient_orthogonality(capsys):
    t0 = time.monotonic()
    rng = as_rng(107)
    basis = fock.FockBasis(1, 3)
    lams = (0.7, 1.0, 2.0)

    def vgrid(la, lb):
        half = float(np.sqrt((37.0 + 4.0 * 3) / ((la + lb) / 4.0)))
        pts, wts = QuadratureSpec.cube(90, half, 2).grid()
        return (pts[:, 0] + 1j * pts[:, 1]).reshape(-1, 1), wts

    def draw():
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return h / np.linalg.norm(h)

    # same-lambda: single fitted constant per lambda over 20 quadruples
    same_worst = 0.0
    fitted = []
    for lam in lams:
        vc, wts = vgrid(lam, lam)
        T = _coefficient_table(lam, basis, vc)
        meas, pred = [], []
        for _ in range(20):
            h1, h2, h3, h4 = draw(), draw(), draw(), draw()
            e1 = np.einsum("m,r,mrp->p", h1, np.conj(h2), T)
            e2 = np.einsum("m,r,mrp->p", h3, np.conj(h4), T)
            meas.append(np.sum(wts * e1 * np.conj(e2)))
            pred.append(np.vdot(h3, h1) * np.conj(np.vdot(h4, h2)))
        meas, pred = np.array(meas), np.array(pred)
        c = np.vdot(pred, meas) / np.vdot(pred, pred)
        fitted.append(c)
        same_worst = max(same_worst, float(np.max(np.abs(meas - c * pred)) / np.max(np.abs(meas))))

    # cross-lambda: the t-average over a mass-1 Gaussian window kills
    # the frequency mismatch; the v-integral stays order one
    tnodes, twts = np.polynomial.legendre.leggauss(240)
    T_WIN = 30.0
    tnodes = tnodes * 8.0 * T_WIN
    twts = twts * 8.0 * T_WIN
    gauss = np.exp(-(tnodes**2) / (2.0 * T_WIN**2)) / (T_WIN * np.sqrt(2.0 * np.pi))
    cross_worst = 0.0
    for ia in range(len(lams)):
        for ib in range(ia + 1, len(lams)):
            la, lb = lams[ia], lams[ib]
            wfac = np.sum(twts * gauss * np.exp(1j * (la - lb) * tnodes))
            vc, wts = vgrid(la, lb)
            Ta = _coefficient_table(la, basis, vc)
            Tb = _coefficient_table(lb, basis, vc)
            for _ in range(10):
                h1, h2, h3, h4 = draw(), draw(), draw(), draw()
                e1 = np.einsum("m,r,mrp->p", h1, np.conj(h2), Ta)
                e2 = np.einsum("m,r,mrp->p", h3, np.conj(h4), Tb)
                vint = np.sum(wts * e1 * np.conj(e2))
                cross_worst = max(cross_worst, abs(wfac * vint))
    dt = time.monotonic() - t0
    ok = same_worst < 1e-5 and cross_worst < 1e-5 and dt < 120.0
    cs = ", ".join(f"{np.real(c):.6f}" for c in fitted)
    _report(capsys, ok, "criterion 7 matrix-coefficient orthogonality",
            f"same-lam residual {same_worst:.3e} (fitted c per lam: {cs}; 2pi/lam expected), "
            f"cross-lam max {cross_worst:.3e}, {dt:.1f} s")


def test_criterion_08_twisted_convolution_projections(capsys):
    t0 = time.monotonic()
    lam = 1.1
    cross = 0.0
    for i in range(4):
        for j in range(4):
            if i != j:
                cross = max(cross, projection_check(lam, i, j).cross_max)
    diag = [projection_check(lam, j, j) for j in range(4)]
    resid = max(r.proportionality_residual for r in diag)
    cps = np.array([r.cprime for r in diag])
    jdev = float(np.max(np.abs(cps / cps[0] - 1.0)))
    scale = projection_check(2.0 * lam, 0, 0).cprime
    sdev = abs(cps[0] / scale / 2.0 - 1.0)
    dt = time.monotonic() - t0
    ok = cross < 1e-6 and resid < 1e-5 and jdev < 1e-5 and sdev < 0.01 and dt < 120.0
    _report(capsys, ok, "criterion 8 projections",
            f"cross max {cross:.3e}, diag residual {resid:.3e}, c' j-dev {jdev:.3e}, "
            f"lam-scaling dev {sdev:.3e}, {dt:.1f} s")


def test_criterion_09_heisenberg_inversion(capsys):
    t0 = time.monotonic()
    rep = heisenberg_inversion_check(J=20, lam_nodes=64)
    dt = time.monotonic() - t0
    ok = rep.max_rel_error < 1e-3 and dt < 600.0
    _report(capsys, ok, "criterion 9 Heisenberg inversion",
            f"max rel error {rep.max_rel_error:.3e} at 5 probes, fitted c {rep.fitted_c:.8f} "
            f"(classical {rep.classical_c:.8f}), raw truncated max {max(rep.raw_rel_errors):.3e}, {dt:.1f} s")


def test_criterion_10_caseI_closed_vs_orbit_mc(capsys):
    t0 = time.monotonic()
    alg = build_case("I", n=1)
    rng = as_rng(110)
    x = rng.standard_normal(3)
    x *= 1.2 / np.linalg.norm(x)
    checked = 0
    worst_sigma = 0.0
    for j in range(4):
        idx = spherical_index(alg, x, j)
        for _ in range(5):
            z = rng.standard_normal(3) * 0.6
            v = rng.standard_normal(4) * 0.7
            mc = phi_orbit(idx, z, v, samples=100000, seed=int(rng.integers(10**9)))
            ref = phi_caseI_closed(idx.lam, j, z, v)
            nsig = abs(mc.value - ref) / max(mc.stderr, 1e-300)
            worst_sigma = max(worst_sigma, nsig)
            checked += 1
    dt = time.monotonic() - t0
    ok = worst_sigma <= 3.0 and checked == 20 and dt < 300.0
    _report(capsys, ok, "criterion 10 case I closed vs orbit MC",
            f"worst deviation {worst_sigma:.2f} sigma over 20 points at 1e5 samples, {dt:.1f} s")


def test_criterion_11_gram_schmidt_laguerre(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for n in (1, 2, 3):
        qs = canonical_polynomials("VII", {"n": n}, 5, lam=1.0)
        for j, q in enumerate(qs):
            for k in range(j + 1):
                want = (-0.5) ** k * comb(j + n - 1, j - k) / factorial(k) / comb(j + n - 1, j)
                got = dict(q.coeffs).get((k,), 0.0)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    dt = time.monotonic() - t0
    ok = worst < 1e-8 and dt < 60.0
    _report(capsys, ok, "criterion 11 Gram-Schmidt Laguerre",
            f"max coefficient dev {worst:.3e} for j<=5, n in {{1,2,3}}, {dt:.1f} s")


def _circle_actions(count):
    th = 2.0 * np.pi * np.arange(count) / count
    c, s = np.cos(th), np.sin(th)
    rots = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    return OrthAutomorphism(np.ones((count, 1, 1)), rots)


def test_criterion_12_functional_equation(capsys):
    t0 = time.monotonic()
    rng = as_rng(112)

    # U(1) sub-check: deterministic circle quadrature
    alg1 = build_case("VII", n=1)
    idx1 = spherical_index(alg1, [1.3], 2)
    quad_worst = 0.0
    ks1 = _circle_actions(64)
    for _ in range(20):
        xp = (rng.standard_normal(1) * 0.4, rng.standard_normal(2) * 0.8)
        yp = (rng.standard_normal(1) * 0.4, rng.standard_normal(2) * 0.8)
        rep = functional_equation_residual(
            lambda p: phi(idx1, *p).value,
            alg1, xp, yp, ks1)
        quad_worst = max(quad_worst, rep.residual)

    # U(n) and case I sub-checks: Haar Monte Carlo within 3 sigma
    mc_worst = 0.0
    alg2 = build_case("VII", n=2)
    idx2 = spherical_index(alg2, [0.9], 1)
    ks2 = sample_k_actions(alg2, as_rng(1120), count=4000)
    algI = build_case("I", n=1)
    lamI, jI = 1.2, 1
    ksI = sample_k_actions(algI, as_rng(1121), count=4000)
    for _ in range(20):
        xp = (rng.standard_normal(1) * 0.3, rng.standard_normal(4) * 0.6)
        yp = (rng.standard_normal(1) * 0.3, rng.standard_normal(4) * 0.6)
        rep = functional_equation_residual(
            lambda p: phi(idx2, *p).value,
            alg2, xp, yp, ks2)
        mc_worst = max(mc_worst, (rep.residual - 1e-6) / max(rep.stderr, 1e-300))
        xi = (rng.standard_normal(3) * 0.4, rng.standard_normal(4) * 0.6)
        yi = (rng.standard_normal(3) * 0.4, rng.standard_normal(4) * 0.6)
        repI = functional_equation_residual(
            lambda p: phi_caseI_closed(lamI, jI, p[0], p[1]), algI, xi, yi, ksI)
        mc_worst = max(mc_worst, (repI.residual - 1e-6) / max(repI.stderr, 1e-300))
    dt = time.monotonic() - t0
    ok = quad_worst < 1e-6 and mc_worst <= 3.0 and dt < 300.0
    _report(capsys, ok, "criterion 12 functional equation",
            f"U(1) quadrature residual {quad_worst:.3e}, MC worst {mc_worst:.2f} sigma "
            f"over 20 pairs per sub-check, {dt:.1f} s")


def test_criterion_13_caseI_inversion_probe(capsys):
    t0 = time.monotonic()
    rep = general_inversion_probe()
    dt = time.monotonic() - t0
    nsig = rep.spread / rep.combined_sigma
    ok = rep.consistent() and dt < 900.0
    _report(capsys, ok, "criterion 13 case I inversion probe",
            f"ratios {rep.ratios[0]:.2f} vs {rep.ratios[1]:.2f}, spread {nsig:.2f} sigma "
            f"(J={rep.J}, {rep.samples} samples/node), {dt:.1f} s")
