"""Plancherel densities, group convolution, and desk-scale inversion
checks.

The density of a square-integrable class with chamber data (H, Z) is
|Pf B_x| * theta(H), reported with the two factors kept separate.  The
inversion checks reconstruct explicit Gaussians from partial sums of
matrix-coefficient (spherical-trace) convolutions:

  * heisenberg_inversion_check works on the 3-dimensional Heisenberg
    group, integrating the frequency line by Gauss-Legendre nodes and
    evaluating the v-side twisted convolutions by a 2-d tensor rule.  The
    raw truncated values reproduce to about 1e-15 relative across
    rounding changes; the tail-completed ones only to about 1e-7,
    because the Wynn epsilon step divides by differences of partial
    sums;
  * general_inversion_probe works on the case I group at the identity,
    with the Gaussian z- and v-integrals carried out exactly per Haar
    sample of the orbit average (Fubini), so the only stochastic error
    is the orbit Monte Carlo itself.

Both fit the single unknown normalization constant once, globally, and
report per-probe relative errors against the known input function.

The Heisenberg slices and projection_check, the twisted-convolution
projection identities of the Laguerre functions on C^1, share one
integral: a Laguerre-Gaussian twisted against the Laguerre functions of
frequency lam (_twisted_laguerre).  The Laguerre addition theorem
L_j^(0)(x + y) = sum_{i <= j} L_i^(-1/2)(x) L_{j-i}^(-1/2)(y), applied
to both Laguerre factors, splits the whole integrand over the two real
axes, so each integral is a Cauchy product of two per-axis tables of
1-d sums on one cached rule and nothing is built on the 2-d grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .algebra import LauretAlgebra, build_case
from .forms import Functional
from .numerics import QuadratureSpec, as_rng, laguerre_all, leggauss, mc_mean, require_budget
from .spherical import _v_factor
from . import fock
from . import torus


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlancherelDensity:
    """Density value with its two factors reported separately.

    value = pfaffian * theta; degenerate functionals get value 0 (the
    pfaffian vanishes)."""

    case: str
    pfaffian: float
    theta: float
    value: float
    square_integrable: bool


def density_of(alg: LauretAlgebra, x) -> PlancherelDensity:
    """Plancherel density of the functional with g-coordinates x, or of
    the Functional x, whose chamber chart is then reused."""
    fn = x if isinstance(x, Functional) else Functional(alg, x)
    verdict = fn.classify()
    rs = alg.root_system()
    # with no compact factors the root product is empty
    th = torus.theta(rs, fn.chamber[0]) if rs.factors else 1.0
    return PlancherelDensity(
        case=alg.spec.case,
        pfaffian=verdict.pfaffian,
        theta=th,
        value=verdict.pfaffian * th,
        square_integrable=verdict.square_integrable,
    )


def density(alg: LauretAlgebra, H, Z) -> PlancherelDensity:
    """Density at chamber data (H, Z), as in LauretAlgebra.from_chamber."""
    return density_of(alg, alg.from_chamber(H, Z))


# ---------------------------------------------------------------------------
# group convolution
# ---------------------------------------------------------------------------

def group_convolution(alg: LauretAlgebra, f, g, spec: QuadratureSpec):
    """(f * g)(x) = int f(y) g(y^{-1} x) dy over the spec's cube.

    f and g map (P, dim_g + dim_v) point arrays to values; the returned
    callable does the same.  Lebesgue measure on the coordinates is the
    Haar measure of the two-step group.
    """
    dg = alg.dim_g
    if spec.dim != dg + alg.dim_v:
        raise ValueError("quadrature dimension must match dim_g + dim_v")
    ys, w = spec.grid()
    fy = np.asarray(f(ys)) * w
    zs, vs = ys[:, :dg], ys[:, dg:]

    def conv(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty(len(x), dtype=complex)
        for p, row in enumerate(x):
            zx, vx = row[:dg], row[dg:]
            # y^{-1} x = (zx - zy - [vy, vx]/2, vx - vy)
            znew = zx[None, :] - zs - 0.5 * alg.bracket(vs, vx)
            vnew = vx[None, :] - vs
            out[p] = fy @ np.asarray(g(np.concatenate([znew, vnew], axis=1)))
        return out if len(out) > 1 else out[0]

    return conv


# ---------------------------------------------------------------------------
# Heisenberg inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InversionReport:
    """Result of a truncated Plancherel reconstruction.

    wynn_orders holds, per frequency node, one epsilon-table order per
    probe: the order the tail completion reached (its estimate is the
    last even column at or below it), 0 where there was no completion
    (J < 2).  passed() holds when every relative error is at most 1e-3.
    """

    fitted_c: float
    classical_c: float
    probes: tuple
    f_values: tuple
    reconstructed: tuple
    rel_errors: tuple
    raw_rel_errors: tuple
    J: int
    lam_nodes: int
    lam_max: float
    wynn_orders: tuple

    @property
    def max_rel_error(self):
        return max(self.rel_errors)

    def passed(self):
        return self.max_rel_error <= 1e-3


_DEFAULT_PROBES = (
    (0.0, (0.0, 0.0)),
    (0.5, (0.3, -0.2)),
    (-0.3, (0.1, 0.4)),
    (0.2, (-0.5, 0.1)),
    (0.8, (0.2, 0.2)),
)


def _twisted_laguerre(lam, i, beta, vs, J, nodes, half):
    """The integrals

        I_j(v) = int L_i(lam |w|^2 / 2) e^{-beta |w|^2}
                 L_j(lam |v-w|^2 / 2) e^{-lam |v-w|^2 / 4}
                 e^{-i lam (w_0 v_1 - w_1 v_0) / 2} dw,   j <= J,

    on C^1 = R^2 at the real points vs (P, 2), with L_k = L_k^(0);
    returns (J+1, P).  The phase is e^{-i lam [w, v] / 2}, with [w, v]
    the Heisenberg bracket Im<w, v>.

    The integral runs over a nodes x nodes Gauss-Legendre tensor rule
    on [-half, half]^2, but nothing is built on the 2-d grid.  Each
    Laguerre argument is a sum x0 + x1 of one term per axis, and the
    addition theorem

        L_n^(0)(x0 + x1) = sum_{a <= n} L_a^(-1/2)(x0) L_{n-a}^(-1/2)(x1)

    holds because the generating functions sum_n L_n^(a)(x) t^n =
    (1-t)^{-a-1} e^{-xt/(1-t)} at a = -1/2 multiply to the one at a = 0.
    The Gaussians, the phase and dw split over the axes as f0 (x) f1, so
    with the per-axis tables

        A_k[a, c] = sum_n L_a^(-1/2)(lam w_n^2 / 2)
                    L_c^(-1/2)(lam (v_k - w_n)^2 / 2) fk_n

    the integral is the Cauchy product I_j = sum_{a <= i} sum_{c <= j}
    A_0[a, c] A_1[i-a, j-c].  It agrees with a full-grid evaluation to
    rounding (about 1e-15 of the integrals' size).  The largest array,
    the (J+1, P, 2, nodes) table of the v-w Laguerre values, is checked
    against NILHARM_BUDGET first.
    """
    total = (J + 1) * len(vs) * 2 * nodes
    require_budget(total, f"{J + 1} x {len(vs)} x 2 x {nodes} = {total} Laguerre-table entries")
    x, w1 = leggauss(nodes)
    w, wgt = x * half, w1 * half
    # (P, 2, nodes): per point and axis k, fk on the 1-d rule
    d = (vs[:, :, None] - w) ** 2
    turn = np.stack([-vs[:, 1], vs[:, 0]], axis=1)[:, :, None]
    f = np.exp(-beta * w**2 - lam * d / 4.0 + 0.5j * lam * turn * w) * wgt
    lv = laguerre_all(J, -0.5, lam * d / 2.0)
    # (i+1, J+1, P, 2): the tables A_k[a, c] per point
    sums = np.stack([np.einsum("cpkn,pkn->cpk", lv, la * f)
                     for la in laguerre_all(i, -0.5, lam * w**2 / 2.0)])
    return sum(np.stack([np.convolve(a0, a1)[: J + 1]
                         for a0, a1 in zip(sums[a, :, :, 0].T, sums[i - a, :, :, 1].T)], axis=1)
               for a in range(i + 1))


def _laguerre_slices(lam, b, probes, J, vnodes):
    """Measured twisted-convolution slices I_j(v_p) for the Gaussian
    e^{-b |w|^2} against the Laguerre functions of frequency lam: the
    integrals of _twisted_laguerre at i = 0 on the probes' v-points.
    Returns (J+1, P)."""
    vs = np.array([v for _, v in probes], dtype=float)
    half = np.max(np.linalg.norm(vs, axis=1)) + np.sqrt((37.0 + 2.0 * J) / (b + lam / 4.0))
    return _twisted_laguerre(lam, 0, b, vs, J, vnodes, half)


def _wynn_limit(partial, scale):
    """Wynn epsilon limit estimate from a short run of partial sums.

    Exact for sums of a few geometric components, which is the measured
    structure of the Laguerre slices (a decaying ratio plus a slowly
    rotating oscillatory pair); the iteration stops before any
    difference underflows relative to scale, falling back to the last
    stable even column.  Returns (estimate, order reached).
    """
    eps_prev = np.zeros(len(partial) + 1, dtype=complex)
    eps_cur = np.asarray(partial, dtype=complex)
    best = eps_cur[-1]
    order = 0
    while len(eps_cur) >= 2:
        diffs = eps_cur[1:] - eps_cur[:-1]
        if np.any(np.abs(diffs) < 1e-13 * scale):
            break
        nxt = eps_prev[1: len(eps_cur)] + 1.0 / diffs
        eps_prev, eps_cur = eps_cur, nxt
        order += 1
        if order % 2 == 0:
            best = eps_cur[-1]
    return best, order


def heisenberg_inversion_check(
    widths=(1.0, 1.0),
    probes=None,
    J=20,
    lam_max=8.0,
    lam_nodes=64,
    vnodes=160,
):
    """Reconstruct f(t, v) = e^{-a t^2 - b |v|^2} on the 3-dimensional
    Heisenberg group from the truncated inversion series

        f ~ c * int |lam| sum_{j <= J} (f * psi_{lam, j}) d lam,

    with the t-integral of the convolution done in closed form (it is a
    Gaussian Fourier transform) and the v-side twisted convolutions by
    2-d Gauss-Legendre quadrature.  The single constant c is fitted by
    least squares over all probes; classically c = (2 pi)^{-2}.

    For J >= 2 the truncation remainder per frequency node and probe
    is estimated by Wynn epsilon extrapolation of the trailing measured
    partial sums; the raw truncated errors are reported alongside.
    """
    a, b = (float(widths[0]), float(widths[1]))
    if not (a > 0 and b > 0):
        raise ValueError("widths must be positive")
    if J < 0 or not lam_max > 0 or lam_nodes < 1 or vnodes < 1:
        raise ValueError("need J >= 0, lam_max > 0, lam_nodes >= 1 and vnodes >= 1")
    probes = tuple(probes) if probes is not None else _DEFAULT_PROBES
    if not probes:
        raise ValueError("probes is empty: need at least one (t, v) point")
    nodes, wts = leggauss(lam_nodes)
    nodes = (nodes + 1.0) * (lam_max / 2.0)
    wts = wts * (lam_max / 2.0)
    P = len(probes)
    rhs = np.zeros(P)
    rhs_raw = np.zeros(P)
    tvals = np.array([t for t, _ in probes])
    orders = []
    for lam, wk in zip(nodes, wts):
        slices = _laguerre_slices(lam, b, probes, J, vnodes)
        partial = np.cumsum(slices, axis=0)
        inner_raw = partial[J]
        inner = inner_raw.copy()
        node_orders = [0] * P
        if J >= 2:
            window = min(9, J + 1)
            for p in range(P):
                inner[p], node_orders[p] = _wynn_limit(partial[J - window + 1: J + 1, p],
                                                       abs(partial[J, p]) + 1.0)
        orders.append(tuple(node_orders))
        tfac = np.sqrt(np.pi / a) * np.exp(-lam**2 / (4.0 * a))
        # the lam < 0 half mirrors to the conjugate, so each node
        # contributes twice the real part
        phase_t = np.exp(1j * lam * tvals)
        rhs += wk * lam * tfac * 2.0 * np.real(phase_t * inner)
        rhs_raw += wk * lam * tfac * 2.0 * np.real(phase_t * inner_raw)
    fvals = np.array([np.exp(-a * t**2 - b * (v[0] ** 2 + v[1] ** 2)) for t, v in probes])
    c_fit = float(np.dot(rhs, fvals) / np.dot(rhs, rhs))
    c_raw = float(np.dot(rhs_raw, fvals) / np.dot(rhs_raw, rhs_raw))
    rel = np.abs(c_fit * rhs - fvals) / np.abs(fvals)
    rel_raw = np.abs(c_raw * rhs_raw - fvals) / np.abs(fvals)
    return InversionReport(
        fitted_c=c_fit,
        classical_c=1.0 / (2.0 * np.pi) ** 2,
        probes=probes,
        f_values=tuple(fvals),
        reconstructed=tuple(c_fit * rhs),
        rel_errors=tuple(float(r) for r in rel),
        raw_rel_errors=tuple(float(r) for r in rel_raw),
        J=J,
        lam_nodes=lam_nodes,
        lam_max=lam_max,
        wynn_orders=tuple(orders),
    )


# ---------------------------------------------------------------------------
# twisted-convolution projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionReport:
    """phi_i x_lam phi_j behavior: vanishing off the diagonal,
    proportionality on it."""

    lam: float
    i: int
    j: int
    cross_max: float
    cprime: float
    proportionality_residual: float
    points: int


def projection_check(lam, i, j, nodes=120, points=None, seed=0):
    """Twisted-convolution behavior of the Laguerre functions
    phi_k(v) = L_k^(0)(lam |v|^2 / 2) e^{-lam |v|^2 / 4} on C^1.

    The convolution

        (phi_i x_lam phi_j)(v) = int phi_i(w) phi_j(v - w)
                                 e^{i lam (w_0 v_1 - w_1 v_0) / 2} dw

    is the integral of _twisted_laguerre at beta = lam / 4 and the
    reflected point (v_0, -v_1), which flips the sign of its phase (the
    phi_k are radial); the addition theorem splits both Laguerre
    factors over the two real axes, so it runs on one 1-d rule per axis.

    For i != j the convolution vanishes; for i = j it reproduces phi_j
    times a constant c' independent of j that scales like lam^{-1}.
    The constant is measured at v = 0 and the proportionality residual
    is the worst deviation at the sample points, relative to phi_j's
    peak value.
    """
    lam = float(lam)
    if lam <= 0:
        raise ValueError("lam must be positive")
    jmax = max(i, j)
    half = np.sqrt((37.0 + 4.0 * jmax) / (lam / 4.0))
    if points is None:
        rng = as_rng(seed)
        pts = rng.normal(scale=1.0 / np.sqrt(lam), size=(20, 2))
        pts[0] = 0.0
    else:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be real (P, 2) coordinates of C^1")
        if not len(pts):
            raise ValueError("points is empty: need at least one point of C^1")
    vals = _twisted_laguerre(lam, i, lam / 4.0, pts * [1.0, -1.0], j, nodes, half)[j]
    # the closed VII kernel at the points
    phij = _v_factor("VII", {"n": 1}, (j,), lam, pts, 1.0)
    if i != j:
        return ProjectionReport(
            lam=lam, i=i, j=j,
            cross_max=float(np.max(np.abs(vals))),
            cprime=0.0,
            proportionality_residual=float("nan"),
            points=len(pts),
        )
    cprime = float(np.real(vals[0]) / phij[0])
    resid = float(np.max(np.abs(vals - cprime * phij)) / np.max(np.abs(phij)))
    return ProjectionReport(
        lam=lam, i=i, j=j,
        cross_max=0.0,
        cprime=cprime,
        proportionality_residual=resid,
        points=len(pts),
    )


# ---------------------------------------------------------------------------
# general inversion probe (case I)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralInversionReport:
    """Identity-probe reconstructions for two width choices.

    ratios are reconstructed-over-true values up to the common
    normalization constant, so the check is their mutual consistency:
    consistent() holds when they agree within 3 combined Monte-Carlo
    standard errors."""

    ratios: tuple
    stderrs: tuple
    widths: tuple
    J: int
    samples: int

    @property
    def spread(self):
        return abs(self.ratios[0] - self.ratios[1])

    @property
    def combined_sigma(self):
        return float(np.sqrt(self.stderrs[0] ** 2 + self.stderrs[1] ** 2))

    def consistent(self):
        return self.spread <= 3.0 * self.combined_sigma


_DEFAULT_WIDTHS = (((0.8, 1.0, 1.3), 1.0), ((1.2, 0.9, 0.7), 0.6))


def _probe_one_width(alg, avec, b, J, lam_max, lam_nodes, samples, seed):
    """RHS of the case I inversion at the identity for
    f = e^{-sum a_i z_i^2 - b |v|^2}, n = 1.

    Per frequency r (the chamber coordinate) the convolution at e is

        (f * psi_{r, j})(e) = E_g[ Zint(g, r) ] * Vint_j(r),

    where the z- and v-integrals against the Gaussian are exact per
    orbit sample (Fubini):

        Zint(g, r) = prod_i sqrt(pi / a_i) e^{-r^2 u_{g,i}^2 / (4 a_i)},
        u_g = Ad(g^{-1}) Y on the unit sphere,
        Vint_j(r) = pi^d C(j + d - 1, j) (b - r/4)^j / (b + r/4)^{j+d}

    over the one coordinate run C^d of case I (fock.kx_blocks).

    These are summed over j <= J against the Plancherel weight
    4 r^4 dr (pfaffian r^2 times theta 4 r^2) with fresh Haar samples
    per node, so the node errors add in quadrature.
    """
    avec = np.asarray(avec, dtype=float)
    nodes, wts = leggauss(lam_nodes)
    nodes = (nodes + 1.0) * (lam_max / 2.0)
    wts = wts * (lam_max / 2.0)
    zfac = float(np.prod(np.sqrt(np.pi / avec)))
    total = 0.0
    var = 0.0
    y = np.array([1.0, 0.0, 0.0])
    (d,) = fock.kx_blocks("I", alg.spec.params)
    js = np.arange(J + 1)
    dims = np.array([comb(j + d - 1, j) for j in js], dtype=float)
    for knode, (r, wk) in enumerate(zip(nodes, wts)):
        rng = as_rng((seed, knode))
        vmats = alg.ops.sample_vmats(rng, samples)
        u = np.stack([alg.orbit_pairing(vmats, y, e) for e in np.eye(alg.dim_g)], axis=1)
        zint = zfac * np.exp(-(r**2) * np.sum(u**2 / (4.0 * avec), axis=1))
        mean, sem = mc_mean(zint)
        p, q = b + r / 4.0, b - r / 4.0
        vsum = float(np.pi**d * np.sum(dims * q**js / p ** (js + d)))
        weight = wk * 4.0 * r**4 * vsum
        total += weight * mean
        var += (weight * sem) ** 2
    return float(total), float(np.sqrt(var))


def general_inversion_probe(
    width_specs=_DEFAULT_WIDTHS,
    J=25,
    lam_max=12.0,
    lam_nodes=40,
    samples=4000,
    seed=0,
):
    """Case I (n = 1) inversion at the identity, two widths.

    For each width pair (a, b), with one width a_i per z-coordinate
    (dim g = 3), the report's ratio is the reconstructed value divided
    by f(e) = 1; the unknown overall constant is common to both, so
    equality of the two ratios within the combined 3 sigma is the
    desk-scale form of the inversion theorem.
    """
    if J < 0 or not lam_max > 0 or lam_nodes < 1 or samples < 2:
        raise ValueError("need J >= 0, lam_max > 0, lam_nodes >= 1 and samples >= 2")
    if not all(np.all(np.asarray(avec, dtype=float) > 0) and b > 0 for avec, b in width_specs):
        raise ValueError("widths must be positive")
    alg = build_case("I", n=1)
    if len(width_specs) != 2 or any(np.shape(avec) != (alg.dim_g,) for avec, _ in width_specs):
        raise ValueError(f"need two width pairs (a, b), each a with dim g = {alg.dim_g} entries")
    require_budget(samples * alg.dim_v**2, f"{samples} orbit samples of {alg.dim_v}^2 V-matrix entries")
    ratios = []
    errs = []
    for widx, (avec, b) in enumerate(width_specs):
        val, err = _probe_one_width(alg, avec, b, J, lam_max, lam_nodes, samples,
                                    seed=seed * 7919 + widx)
        ratios.append(val)
        errs.append(err)
    return GeneralInversionReport(
        ratios=tuple(ratios),
        stderrs=tuple(errs),
        widths=tuple(width_specs),
        J=J,
        samples=samples,
    )
