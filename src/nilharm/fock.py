"""Truncated Fock-space model of the square-integrable representations.

The representation of the Heisenberg-type quotient at frequency lam > 0
acts on entire functions of n complex variables by

    pi_lam(t, v) F(z) = e^{i lam t} e^{-lam |v|^2/4 - (lam/2) <z, v>} F(z + v),

with <z, v> = sum z_i conj(v_i); for lam < 0 the representation is the
entrywise conjugate of the one at |lam| (antiholomorphic model).  The
normalized monomials z^m / ||z^m|| form an orthonormal basis with
||z^m||^2 = prod m_i! (2/lam)^{|m|}, where the Gaussian measure is
normalized so that ||1|| = 1, hence <pi(0, v) 1, 1> = e^{-lam |v|^2/4}.

Matrix entries of pi(t, v) in this basis are closed Laguerre forms,
per coordinate at the one frequency mu = |lam| of the symplectically
normalized coordinates

    <pi_mu(v) e_m, e_r> = e^{-x/2} sqrt(lo!/hi!) w^{|r-m|} L_lo^{(|r-m|)}(x),

with x = mu |v|^2 / 2, lo, hi = min/max(r, m), w = sqrt(mu/2) v above
the diagonal and -sqrt(mu/2) conj(v) below it.  One builder tabulates
them per coordinate (_entry_tables), accurate to rounding at every
degree, for pi_matrix, which reads them at one point or at a stack of
points; psi_numeric keeps its own diagonal as the independent oracle.
Truncation at total degree D only affects operator products
(composition leaks degree), so operator identities are asserted on
degrees <= D - 2.

The K_x-types (metaplectic_components) are one degree per coordinate
run (kx_blocks) or, in IV, VIII with k >= 2 and X, Weyl dimensions of
the torus root tables (Factor.weyl_dim of sp(n) and su(k)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, isfinite, prod
from typing import Optional

import numpy as np

from . import torus
from .cases import case_params
from .numerics import as_complex_vector, laguerre_all, require_budget


def monomials_of_degree(nvars, degree):
    """All exponent tuples of the given total degree, lex ascending."""
    if nvars == 0:
        return [()] if degree == 0 else []
    if nvars == 1:
        return [(degree,)]
    out = []
    for a in range(degree + 1):
        out.extend((a,) + rest for rest in monomials_of_degree(nvars - 1, degree - a))
    return out


def _log_factorials(dmax):
    """log m! for m = 0 ... dmax."""
    return np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, dmax + 1)))])


class FockBasis:
    """Monomial multi-indices |m| <= max_degree in graded-lex order.

    The size C(n + D, D) is checked against NILHARM_BUDGET before the
    monomials are enumerated."""

    def __init__(self, n, max_degree):
        if not all(isinstance(a, (int, np.integer)) for a in (n, max_degree)) or n < 1 or max_degree < 0:
            raise ValueError(f"need integers n >= 1 and max_degree >= 0, got {n!r} and {max_degree!r}")
        self.n = int(n)
        self.max_degree = int(max_degree)
        self.count = comb(self.n + self.max_degree, self.max_degree)
        require_budget(self.count, "C({0}+{1}, {1}) = {2} monomials", self.n, self.max_degree, self.count)
        idx = []
        self._degree_start = []
        for d in range(self.max_degree + 1):
            self._degree_start.append(len(idx))
            idx.extend(monomials_of_degree(self.n, d))
        self._degree_start.append(len(idx))
        self.indices = np.array(idx, dtype=int)
        self.degrees = self.indices.sum(axis=1)
        self.index_of = {tuple(m): i for i, m in enumerate(idx)}

    def degree_slice(self, d):
        """Positions of the degree-d monomials (contiguous)."""
        return slice(self._degree_start[d], self._degree_start[d + 1])

    def __repr__(self):
        return f"FockBasis(n={self.n}, max_degree={self.max_degree}, count={self.count})"


def _entry_tables(mu, z, dmax):
    """tab[..., r, m] = <pi_mu(v) e_m, e_r> for r, m <= dmax, mu > 0, per
    complex coordinate z (...): one Laguerre recurrence over the orders,
    and the norm ratio, |w|^gap and envelope summed as logarithms, so
    nothing overflows; at v = 0 the table is exactly the identity."""
    deg = np.arange(dmax + 1)
    r, m = deg[:, None], deg[None, :]
    lo, hi = np.minimum(r, m), np.maximum(r, m)
    gap = hi - lo
    x = 0.5 * mu * np.abs(z)[..., None] ** 2
    logfact = _log_factorials(dmax)
    # the power and the phase are formed per gap and per m - r
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(gap > 0, (0.5 * deg * np.log(x))[..., gap], 0.0)
    modulus = np.exp(0.5 * (logfact[lo] - logfact[hi]) + power - 0.5 * x[..., None])
    # arg w^gap: gap arg(v) above the diagonal, gap (pi - arg(v)) below
    k = np.arange(-dmax, dmax + 1)
    turn = (-1.0) ** np.maximum(-k, 0) * np.exp(1j * k * np.angle(z)[..., None])
    # lag[..., k, alpha] = L_k^(alpha)(x)
    xs = np.broadcast_to(x, x.shape[:-1] + (dmax + 1,))
    lag = np.moveaxis(laguerre_all(dmax, deg.astype(float), xs), 0, -2)
    return modulus * turn[..., m - r + dmax] * lag[..., lo, gap]


def pi_matrix(lam, t, v, basis: FockBasis):
    """Matrix of pi_lam(t, v) on the normalized monomial basis, at one
    point or at a stack of points.

    Parameters
    ----------
    lam : float, nonzero
        Frequency; negative values give the conjugate model.
    t : float or array (...)
        Central coordinate; contributes the exact phase e^{i lam t}.
    v : array (..., n) complex or (..., 2n) interleaved reals
        Points of V; the leading axes of t and v broadcast.
    basis : FockBasis

    Returns
    -------
    (..., count, count) complex array B with B[..., r, m] =
    <pi(t, v) e_m, e_r>, (count, count) at one point.  Entries are closed
    Laguerre forms, accurate to rounding; only compositions are affected
    by truncation.  ValueError unless lam is finite and nonzero and t and
    v are finite; BudgetError when P count^2 or the P n (D+1)^2 entry
    tables, for P broadcast points, exceed NILHARM_BUDGET.
    """
    lam = float(lam)
    t = np.asarray(t, dtype=float)
    z = as_complex_vector(v, basis.n)
    if lam == 0.0 or not (np.isfinite(lam) and np.all(np.isfinite(t)) and np.all(np.isfinite(z))):
        raise ValueError("pi_matrix needs a finite nonzero lam and finite t and v")
    points = prod(np.broadcast_shapes(t.shape, z.shape[:-1]))
    dmax, ridx = basis.max_degree, basis.indices
    total = points * max(basis.count**2, basis.n * (dmax + 1) ** 2)
    require_budget(total, "{} x max({}^2, {} x {}^2) = {} Fock matrix entries",
                   points, basis.count, basis.n, dmax + 1, total)
    # phase x first table, then the others: each point of a stack gets
    # the one-point product, bit for bit; two 1-d takes gather the
    # (row, column) entries faster than one 2-d fancy index
    tabs = _entry_tables(abs(lam), z, dmax)

    def entries(j):
        return tabs[..., j, :, :].take(ridx[:, j], -2).take(ridx[:, j], -1)

    out = np.exp(1j * abs(lam) * t)[..., None, None] * entries(0)
    for j in range(1, basis.n):
        out *= entries(j)
    return np.conj(out) if lam < 0 else out


def truncation_defect(lam, t, v, basis: FockBasis, margin=2):
    """Operator-norm defect of unitarity of pi(t, v) restricted to
    degrees <= max_degree - margin; bounds truncation leakage.
    ValueError unless 0 <= margin <= max_degree, so the block is never
    empty."""
    if not 0 <= margin <= basis.max_degree:
        raise ValueError(f"margin must lie in 0..{basis.max_degree}, got {margin}")
    b = pi_matrix(lam, t, v, basis)
    g = b.conj().T @ b
    sel = basis.degrees <= basis.max_degree - margin
    d = g[np.ix_(sel, sel)] - np.eye(int(sel.sum()))
    return float(np.linalg.norm(d, 2))


# ---------------------------------------------------------------------------
# metaplectic decomposition bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetaplecticComponent:
    """One irreducible component of the metaplectic action on the
    polynomial model, with its Fock monomial basis where the component
    is a span of monomials (the cases with coordinate runs, kx_blocks)."""

    case: str
    index: tuple
    dim: int
    degree: int
    basis: Optional[tuple] = None


def kx_blocks(case, params):
    """Complex sizes of the coordinate runs of V = C^(dim_v / 2), in
    coordinate order, or None where the K_x-types are not run products.

    For a generic functional K_x acts irreducibly on the degree-d
    polynomials of each run, so a K_x-type is one degree per run; its psi
    is e^{-lam |v|^2 / 4} prod_runs L_deg^(size - 1)(lam |v_run|^2 / 2):

        I          (2n,)                one run, degree j
        VII        (n,)                 one run, degree j
        V, IX      (1,) * n             the monomial multi-index
        VI         (1,) * (n / 2)       the monomial multi-index; even n
        III        (2 k1, 1, 1, 2 k2)   degrees (j, l1, l2, s)
        VIII, k=1  (1, 1, 0, 2n)        degrees (r, s, 0, l)

    A run of size 0 (k1, k2 or n = 0; VIII's third, the slot of the GL(k)
    label j for k >= 2) admits only degree 0, so each index is its run
    degrees.  IV, VIII with k >= 2 and X give None.  II, none of whose
    functionals is square integrable, has no K_x-types and raises
    ValueError.  params goes through cases.case_params, as in build_case.
    """
    p = case_params(case, params)
    if case in ("I", "VII"):
        return ((2 if case == "I" else 1) * p["n"],)
    if case in ("V", "IX"):
        return (1,) * p["n"]
    if case == "VI":
        if p["n"] % 2:
            raise ValueError("case VI components need even n")
        return (1,) * (p["n"] // 2)
    if case == "III":
        return (2 * p["k1"], 1, 1, 2 * p["k2"])
    if case == "VIII":
        return (1, 1, 0, 2 * p["n"]) if p["k"] == 1 else None
    if case in ("IV", "X"):
        return None
    raise ValueError("case II has no K_x-type runs: none of its functionals is square integrable")


def check_degrees(lam, runs, degrees):
    """ValueError unless lam is finite and nonzero (the zero functional
    has no Fock model) and degrees holds one nonnegative integer per run,
    0 on an empty run."""
    if lam == 0 or not isfinite(lam):
        raise ValueError(f"need a finite nonzero frequency, got {lam}")
    if len(degrees) != len(runs) or not all(isinstance(d, (int, np.integer)) and d >= 0 and (size or not d)
                                            for size, d in zip(runs, degrees)):
        raise ValueError(f"degrees {tuple(degrees)} need one degree per run of {runs}: "
                         "nonnegative integers, and degree 0 on an empty run")


def homog_dim(nvars, d):
    """dim of the homogeneous degree-d polynomials in nvars complex
    variables (1 at d = 0 when nvars = 0)."""
    if nvars == 0:
        return 1 if d == 0 else 0
    return comb(nvars - 1 + d, d)


def _viii_types(gl_dim, n, d):
    """The degree-d K_x-types on (C^2)^k + (C^2)^n as (index, dim): index
    (r, s, j, l) is the GL(k) weight (r + s - j, j) of gl_dim times the
    degree-l polynomials on C^2n, r + s + l = d."""
    for r in range(d + 1):
        for s in range(d - r + 1):
            lag = homog_dim(2 * n, d - r - s)
            for j in range(min(r, s) + 1):
                dim = gl_dim((r + s - j, j)) * lag
                if dim:
                    yield (r, s, j, d - r - s), dim


def metaplectic_components(case, params, max_degree):
    """Irreducible components of the metaplectic action (the K_x-types
    of a generic functional) up to total degree max_degree, ordered by
    degree.

    Where kx_blocks gives coordinate runs, a component's index is its run
    degrees, one per run, its dimension prod homog_dim(size, degree), and
    its basis the products of the monomials of each run.
    IV (r, s, j, i), at Sp(n) highest weight (r + s - j - i, j - i),
    VIII with k >= 2 (_viii_types) and X (kvec, r, s, j, l), a C^m
    monomial times a VIII type, list Weyl dimensions only.  The
    components split the polynomials of degree <= D on C^(dim_v / 2), so
    C(dim_v / 2 + D, D) bounds their count and basis monomials; it is
    checked against NILHARM_BUDGET first (X(3,1,1) at D = 30, 1.03e7,
    fits the default).  ValueError unless max_degree is a nonnegative
    integer, or where cases.case_params rejects params.
    """
    if not isinstance(max_degree, (int, np.integer)) or max_degree < 0:
        raise ValueError(f"max_degree must be a nonnegative integer, got {max_degree!r}")
    D = int(max_degree)
    p = case_params(case, params)
    runs = kx_blocks(case, p)
    if case == "IV":
        n = p["n"]
        nvars = 4 * n
    elif runs is None:
        m, k, n = p.get("m", 0), p["k"], p["n"]
        nvars = m + 2 * (k + n)
    else:
        nvars = sum(runs)
    total = comb(nvars + D, D)
    require_budget(total, "C({0}+{1}, {1}) = {2} component basis monomials", nvars, D, total)
    out = []
    if runs is not None:
        for d in range(D + 1):
            for degrees in monomials_of_degree(len(runs), d):
                dim = prod(homog_dim(size, deg) for size, deg in zip(runs, degrees))
                if dim:
                    parts = [monomials_of_degree(size, deg) for size, deg in zip(runs, degrees)]
                    basis = tuple(sum(mons, ()) for mons in itertools.product(*parts))
                    out.append(MetaplecticComponent(case, degrees, dim, d, basis))
        return out
    if case == "IV":
        sp_dim = torus.SpFactor(n).weyl_dim
        for d in range(D + 1):
            for r in range(d + 1):
                for j in range(min(r, d - r) + 1):
                    for i in range(j + 1):
                        dim = sp_dim((d - j - i, j - i))
                        if dim:
                            out.append(MetaplecticComponent(case, (r, d - r, j, i), dim, d))
        return out
    gl_dim = (lambda hw: int(sum(map(bool, hw)) <= 1)) if k == 1 else torus.SUFactor(k).weyl_dim
    # VIII is X without the C^m factor: m = 0 leaves only kvec = ()
    for d in range(D + 1):
        for dk in range(d + 1):
            for kvec in monomials_of_degree(m, dk):
                head = (kvec,) if case == "X" else ()
                out.extend(MetaplecticComponent(case, head + index, dim, d)
                           for index, dim in _viii_types(gl_dim, n, d - dk))
    return out


def psi_numeric(case, lam, j, t, v):
    """Partial trace of pi_lam(t, v) over the indexed metaplectic
    component, from the diagonal matrix entries L_m^{(0)}(x) e^{-x/2},
    x = |lam| |v_i|^2 / 2, per coordinate.

    Supported cases: I and VII (index j = scalar degree; the
    C(nvars - 1 + j, j) monomials are checked against NILHARM_BUDGET),
    V and VI (index j = monomial multi-index, one degree per complex
    coordinate).  Every coordinate runs at |lam|, as in the
    symplectically normalized coordinates in which the closed Laguerre
    forms are stated.  The index and lam go through check_degrees, and t
    and v must be finite.
    """
    lam = float(lam)
    if case not in ("I", "V", "VI", "VII"):
        raise ValueError(f"psi_numeric supports cases I, V, VI, VII; got {case!r}")
    z = np.asarray(v).reshape(-1)
    # real coordinates interleave complex pairs (for case I the
    # quaternionic (1, i | j, k) pairs are the aligned complex pairs)
    z = as_complex_vector(z, len(z) if np.iscomplexobj(z) else len(z) // 2)
    nvars = len(z)
    degrees = tuple(np.atleast_1d(j))
    check_degrees(lam, (nvars,) if case in ("I", "VII") else (1,) * nvars, degrees)
    if not (np.isfinite(t) and np.all(np.isfinite(z))):
        raise ValueError("psi_numeric needs finite t and v")
    if case in ("I", "VII"):
        count = homog_dim(nvars, degrees[0])
        require_budget(count, "{} degree-{} monomials in {} variables", count, degrees[0], nvars)
        mons = monomials_of_degree(nvars, degrees[0])
    else:
        mons = [degrees]
    x = 0.5 * abs(lam) * np.abs(z) ** 2
    mons = np.array(mons, dtype=int).reshape(len(mons), nvars)
    lag = laguerre_all(int(mons.max(initial=0)), 0.0, x)
    total = np.sum(np.prod(lag[mons, np.arange(nvars)], axis=1)) * np.exp(-0.5 * np.sum(x))
    phase = np.exp(1j * lam * float(t))
    return complex(phase * total)
