"""Spherical functions: closed Laguerre forms, orbit Monte Carlo, and
canonical invariant polynomials.

Two layers of functions appear.  psi is the partial trace of the
representation over one metaplectic component, a function on the
Heisenberg-type quotient (t, v) with t the pairing of the central
variable with the direction of the functional; the paper's closed forms
are products of Laguerre polynomials times the Gaussian envelope.  phi
is the K-spherical function of the full group, an orbit average

    phi(z, v) = avg over Haar g of
        e^{i |lam| <Ad(g^-1) Y, z>} * (psi v-factor at pi(g) v),

computed by Monte Carlo over the full compact factor G' (the integrand
is right-torus-invariant, so full-group Haar sampling realizes the
quotient integral exactly in law).

Conventions: the closed forms are stated in the symplectically
normalized coordinates in which every frequency equals |lam| (see
fock.psi_numeric); the spherical traces are UNNORMALIZED, with value
dim W at the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import roots_genlaguerre

from .algebra import LauretAlgebra
from .forms import Functional
from .numerics import as_complex_vector, as_rng, laguerre, sphere_character
from .fock import homog_dim


@dataclass(frozen=True)
class SphericalIndex:
    """Case label, frequency, per-case component index, and the case
    parameters needed by the closed forms.

    lam is the signed scalar frequency used by psi; functional (when
    set) carries the full direction data used by phi_orbit.
    """

    case: str
    lam: float
    index: tuple
    params: dict = field(default_factory=dict)
    functional: Optional[Functional] = None

    def __post_init__(self):
        if self.lam == 0 and self.functional is None:
            raise ValueError("need a nonzero frequency")


def spherical_index(alg: LauretAlgebra, x, index) -> SphericalIndex:
    """Build a SphericalIndex from a functional's g-coordinates."""
    fn = Functional(alg, x)
    return SphericalIndex(
        case=alg.spec.case,
        lam=fn.norm,
        index=tuple(np.atleast_1d(index).astype(int)) if np.ndim(index) else (int(index),),
        params=dict(alg.spec.params),
        functional=fn,
    )


@dataclass(frozen=True)
class SphericalValue:
    """A spherical-function value with its evaluation method."""

    value: complex
    method: str  # "closed-form" | "orbit-MC"
    stderr: float = 0.0

    def consistent_with(self, other, nsigma=3.0, atol=0.0):
        tol = nsigma * (self.stderr + getattr(other, "stderr", 0.0)) + atol
        o = other.value if isinstance(other, SphericalValue) else other
        return abs(self.value - o) <= tol


def _lag_at(j, alpha, x):
    return laguerre(j, alpha, np.asarray(x, dtype=float))


def psi_closed(idx: SphericalIndex, t, v):
    """Closed-form psi at (t, v); t is the scalar central coordinate of
    the reduced group (the pairing <Y, z>).

    Supported: I, V, VI, VII, III; VIII with k = 1 (the invariant factor
    comes from canonical_polynomials).  Values at the identity equal
    dim W.
    """
    lam = float(idx.lam)
    alam = abs(lam)
    phase = np.exp(1j * lam * float(t))
    case = idx.case
    if case == "VII":
        n = int(idx.params["n"])
        z = as_complex_vector(v, n)
        (j,) = idx.index
        x = float(np.sum(np.abs(z) ** 2))
        return complex(phase * _lag_at(j, n - 1, alam * x / 2.0) * np.exp(-alam * x / 4.0))
    if case == "I":
        n = int(idx.params["n"])
        z = as_complex_vector(v, 2 * n)
        (j,) = idx.index
        x = float(np.sum(np.abs(z) ** 2))
        return complex(phase * _lag_at(j, 2 * n - 1, alam * x / 2.0) * np.exp(-alam * x / 4.0))
    if case in ("V", "IX"):
        m = idx.index
        z = as_complex_vector(v, len(m))
        val = np.exp(-alam * float(np.sum(np.abs(z) ** 2)) / 4.0)
        for mi, zi in zip(m, z):
            val *= _lag_at(int(mi), 0, alam * abs(zi) ** 2 / 2.0)
        return complex(phase * val)
    if case == "VI":
        m = idx.index
        z = as_complex_vector(v, len(m))
        val = np.exp(-alam * float(np.sum(np.abs(z) ** 2)) / 4.0)
        for mi, zi in zip(m, z):
            val *= _lag_at(int(mi), 0, alam * abs(zi) ** 2 / 2.0)
        return complex(phase * val)
    if case == "III":
        k1, k2 = int(idx.params["k1"]), int(idx.params["k2"])
        j, l1, l2, s = idx.index
        if homog_dim(2 * k1, j) == 0 or homog_dim(2 * k2, s) == 0:
            raise ValueError("index outside the component enumeration")
        v = np.asarray(v, dtype=float).reshape(-1)
        b1 = float(np.sum(v[: 4 * k1] ** 2))
        mid = v[4 * k1: 4 * k1 + 4]
        u1 = mid[0] ** 2 + mid[1] ** 2
        u2 = mid[2] ** 2 + mid[3] ** 2
        b2 = float(np.sum(v[4 * k1 + 4:] ** 2))
        val = np.exp(-alam * (b1 + u1 + u2 + b2) / 4.0)
        if k1:
            val *= _lag_at(int(j), 2 * k1 - 1, alam * b1 / 2.0)
        val *= _lag_at(int(l1), 0, alam * u1 / 2.0)
        val *= _lag_at(int(l2), 0, alam * u2 / 2.0)
        if k2:
            val *= _lag_at(int(s), 2 * k2 - 1, alam * b2 / 2.0)
        return complex(phase * val)
    if case == "VIII":
        k, n = int(idx.params["k"]), int(idx.params.get("n", 0))
        if k != 1:
            raise NotImplementedError("closed psi for case VIII covers k = 1 only")
        r, s, jj, l = idx.index
        if jj != 0:
            raise ValueError("k = 1 components require j = 0")
        v = np.asarray(v, dtype=float).reshape(-1)
        u = v[0] ** 2 + v[1] ** 2
        w = v[2] ** 2 + v[3] ** 2
        b2 = float(np.sum(v[4:] ** 2))
        q = _viii_polynomial(idx, int(r), int(s))
        val = np.exp(-alam * (u + w + b2) / 4.0) * q.evaluate([u, w])
        if n:
            val *= _lag_at(int(l), 2 * n - 1, alam * b2 / 2.0)
        elif l:
            raise ValueError("n = 0 admits only l = 0")
        return complex(phase * val)
    raise NotImplementedError(f"no closed psi for case {case!r}")


def phi_caseI_closed(lam, j, z, v):
    """Case I spherical function in closed form.

    The angular factor is the normalized sphere average
    sphere_character(|lam| |z|) (value 1 at z = 0); the radial factor is
    the Laguerre envelope of psi.  Unnormalized: value C(2n-1+j, j) at
    the identity.
    """
    lam = abs(float(lam))
    if lam == 0:
        raise ValueError("lam must be nonzero")
    z = np.asarray(z, dtype=float).reshape(-1)
    zc = as_complex_vector(v, np.shape(v)[-1] // 2)
    n = len(zc) // 2
    x = float(np.sum(np.abs(zc) ** 2))
    j = int(j)
    return complex(
        sphere_character(lam * float(np.linalg.norm(z)))
        * _lag_at(j, 2 * n - 1, lam * x / 2.0)
        * np.exp(-lam * x / 4.0)
    )


def _orbit_v_factor(idx: SphericalIndex, alam, w, vfull):
    """Per-sample v-factor of the orbit integrand, evaluated on the
    batch of transformed points w (S, dim_v).  The Gaussian envelope is
    handled by the caller (it is K-invariant)."""
    case = idx.case
    if case == "I":
        n = int(idx.params["n"])
        (j,) = idx.index
        x = float(np.sum(np.asarray(vfull, dtype=float) ** 2))
        return np.full(len(w), _lag_at(j, 2 * n - 1, alam * x / 2.0))
    if case == "VII":
        n = int(idx.params["n"])
        (j,) = idx.index
        x = np.sum(w**2, axis=1)
        return _lag_at(j, n - 1, alam * x / 2.0)
    if case in ("V", "IX", "VI"):
        z = as_complex_vector(w, len(idx.index))
        out = np.ones(len(w))
        for i, mi in enumerate(idx.index):
            out *= _lag_at(int(mi), 0, alam * np.abs(z[:, i]) ** 2 / 2.0)
        return out
    if case == "III":
        k1, k2 = int(idx.params["k1"]), int(idx.params["k2"])
        j, l1, l2, s = idx.index
        out = np.ones(len(w))
        b1 = np.sum(w[:, : 4 * k1] ** 2, axis=1)
        mid = w[:, 4 * k1: 4 * k1 + 4]
        u1 = mid[:, 0] ** 2 + mid[:, 1] ** 2
        u2 = mid[:, 2] ** 2 + mid[:, 3] ** 2
        b2 = np.sum(w[:, 4 * k1 + 4:] ** 2, axis=1)
        if k1:
            out *= _lag_at(int(j), 2 * k1 - 1, alam * b1 / 2.0)
        out *= _lag_at(int(l1), 0, alam * u1 / 2.0)
        out *= _lag_at(int(l2), 0, alam * u2 / 2.0)
        if k2:
            out *= _lag_at(int(s), 2 * k2 - 1, alam * b2 / 2.0)
        return out
    if case == "VIII":
        k, n = int(idx.params["k"]), int(idx.params.get("n", 0))
        if k != 1:
            raise NotImplementedError("orbit v-factor for case VIII covers k = 1 only")
        r, s, jj, l = idx.index
        u = w[:, 0] ** 2 + w[:, 1] ** 2
        ww = w[:, 2] ** 2 + w[:, 3] ** 2
        q = _viii_polynomial(idx, int(r), int(s))
        out = q.evaluate(np.stack([u, ww], axis=-1))
        if n:
            b2 = np.sum(w[:, 4:] ** 2, axis=1)
            out = out * _lag_at(int(l), 2 * n - 1, alam * b2 / 2.0)
        return out
    raise NotImplementedError(f"no orbit integrand for case {case!r}")


_VIII_CACHE = {}


def _viii_polynomial(idx, r, s):
    key = (round(abs(idx.lam), 12), r, s)
    if key not in _VIII_CACHE:
        qs = canonical_polynomials(
            "VIII", {"k": 1, "n": idx.params.get("n", 0)}, r + s, lam=abs(idx.lam))
        table = {q.leading: q for q in qs}
        _VIII_CACHE[key] = table
    return _VIII_CACHE[key][(r, s)]


def phi_orbit(idx: SphericalIndex, z, v, samples=20000, seed=0, v_freq=None):
    """Monte-Carlo orbit average realizing the generic spherical
    function at the point (z, v) of N.

    Parameters
    ----------
    idx : SphericalIndex with its functional set
    z : g-coordinates of the central variable
    v : V-coordinates
    samples : Haar sample count over G'
    seed : RNG seed (bit-reproducible)
    v_freq : optional frequency override for the Laguerre/Gaussian
        v-factors (the phase always runs at the functional's norm);
        used when relating functionals of different norms that share
        the same direction data.

    Returns SphericalValue with the Monte-Carlo standard error.
    """
    fn = idx.functional
    if fn is None:
        raise ValueError("phi_orbit needs an index built from a functional")
    alg = fn.alg
    verdict = fn.classify()
    if not verdict.square_integrable:
        raise ValueError("phi_orbit needs a square-integrable functional")
    alam = fn.norm
    vfreq = alam if v_freq is None else float(v_freq)
    z = np.asarray(z, dtype=float).reshape(alg.dim_g)
    v = np.asarray(v, dtype=float).reshape(alg.dim_v)
    vmats = alg.ops.sample_vmats(as_rng(seed), samples)
    pair = alg.orbit_pairing(vmats, fn.y, z)
    w = np.einsum("sab,b->sa", vmats, v)
    vidx = SphericalIndex(idx.case, vfreq, idx.index, idx.params)
    vals = np.exp(1j * alam * pair) * _orbit_v_factor(vidx, vfreq, w, v)
    envelope = np.exp(-vfreq * float(np.sum(v**2)) / 4.0)
    vals = vals * envelope
    mean = complex(np.mean(vals))
    resid = vals - mean
    stderr = float(np.sqrt(np.sum(np.abs(resid) ** 2)) / len(vals))
    return SphericalValue(value=mean, method="orbit-MC", stderr=stderr)


# ---------------------------------------------------------------------------
# canonical invariant polynomials by Gram-Schmidt
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantPolynomial:
    """Polynomial in the invariant generators (block squared norms),
    with float coefficients indexed by exponent tuples."""

    case: str
    generators: tuple       # labels
    alphas: tuple           # per-generator radial exponents (dim/2 - 1)
    lam: float
    coeffs: tuple           # ((exponents, coefficient), ...)
    leading: tuple          # graded-lex leading exponent

    @property
    def degree(self):
        return sum(self.leading)

    def evaluate(self, svals):
        svals = np.asarray(svals, dtype=float)
        svals = np.atleast_2d(svals)
        out = np.zeros(svals.shape[0])
        for expo, c in self.coeffs:
            term = np.full(svals.shape[0], c)
            for i, e in enumerate(expo):
                if e:
                    term = term * svals[:, i] ** e
            out += term
        return out if out.shape[0] > 1 else float(out[0])

    def coefficient(self, expo):
        for e, c in self.coeffs:
            if e == tuple(expo):
                return c
        return 0.0


_GS_GENERATORS = {
    # case -> callable(params dict) -> (labels, alphas)
    "VII": lambda p: (("|v|^2",), (int(p["n"]) - 1,)),
    "VIII": lambda p: (("|u|^2", "|w|^2"), (0, 0)) if int(p["k"]) == 1 else None,
    "IV": lambda p: (("|u|^2", "|w|^2"), (2 * int(p["n"]) - 1, 2 * int(p["n"]) - 1)),
}


def _graded_monomials(ngens, dmax):
    out = []
    for d in range(dmax + 1):
        from .fock import monomials_of_degree

        out.extend(monomials_of_degree(ngens, d))
    return out


def canonical_polynomials(case, params, max_total_degree, lam=1.0):
    """Gram-Schmidt orthogonalization of the invariant-generator
    monomials against the Gaussian weight e^{-lam |v|^2 / 2} dv.

    Each generator is a block squared norm |v_block|^2 whose law under
    the weight is Gamma with shape alpha + 1 (alpha = real block
    dimension / 2 - 1) and scale 2 / lam; moments are computed by
    Gauss-Laguerre quadrature, which is exact at the polynomial degrees
    involved.  Output is graded-lex ordered, orthogonal, and normalized
    to value 1 at the origin (q_0 = 1 exactly).

    Supported: VII (generator |v|^2), VIII with k = 1 (|u|^2, |w|^2),
    IV (block norms |u|^2, |w|^2).  Cross invariants beyond block norms
    are out of scope.  `params` is the case-parameter dict, as in
    build_case.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    gens = _GS_GENERATORS.get(case)
    if gens is None:
        raise NotImplementedError(f"no invariant generators for case {case!r}")
    made = gens(params)
    if made is None:
        raise NotImplementedError(f"case {case!r} Gram-Schmidt is limited to block-norm generators (k = 1)")
    labels, alphas = made
    ngens = len(labels)
    D = int(max_total_degree)
    mons = _graded_monomials(ngens, D)
    # per-generator raw moments E[s^p] for p <= 2D, by quadrature exact
    # at these degrees
    moments = []
    for a in alphas:
        x, wq = roots_genlaguerre(2 * D + 2, a)
        norm = wq.sum()
        p = np.arange(2 * D + 1)
        moments.append(((2.0 / lam) ** p) * (wq @ np.power.outer(x, p)) / norm)

    def inner(c1, c2):
        # <p, q> = sum over monomial pairs of the product moment
        tot = 0.0
        for e1, a1 in c1.items():
            for e2, a2 in c2.items():
                m = a1 * a2
                for i in range(ngens):
                    m *= moments[i][e1[i] + e2[i]]
                tot += m
        return tot

    basis = []
    for mon in mons:
        cur = {tuple(mon): 1.0}
        for prev in basis:
            coef = inner(cur, prev) / inner(prev, prev)
            if coef != 0.0:
                for e, a in prev.items():
                    cur[e] = cur.get(e, 0.0) - coef * a
        basis.append(cur)
    out = []
    zero = (0,) * ngens
    for mon, coeffdict in zip(mons, basis):
        c0 = coeffdict.get(zero, 0.0)
        if abs(c0) < 1e-14:
            raise ArithmeticError("canonical polynomial vanishes at the origin")
        scaled = tuple(
            (e, a / c0) for e, a in sorted(coeffdict.items()) if abs(a / c0) > 1e-14 or e == tuple(mon)
        )
        out.append(
            InvariantPolynomial(
                case=case,
                generators=tuple(labels),
                alphas=tuple(alphas),
                lam=float(lam),
                coeffs=scaled,
                leading=tuple(mon),
            )
        )
    return out


# ---------------------------------------------------------------------------
# functional equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalEquationReport:
    """Residual of avg_k phi~(x (k y)) = phi~(x) phi~(y) together with
    the sampling error of the K-average (zero for a deterministic
    quadrature over K)."""

    residual: float
    stderr: float
    samples: int

    def passed(self, tol=1e-6, nsigma=3.0):
        return self.residual <= tol + nsigma * self.stderr


def functional_equation_residual(phi, alg: LauretAlgebra, x_point, y_point, k_actions):
    """|avg_k phi~(x (k y)) - phi~(x) phi~(y)| for the normalized
    spherical function phi~ = phi / phi(e).

    phi is a callable on points (z, v) returning complex values;
    k_actions is a list of OrthAutomorphisms, either Haar samples of K
    (stderr reported) or a deterministic quadrature (treat stderr as
    informational only).
    """
    xz, xv = x_point
    yz, yv = y_point
    pe = complex(phi((np.zeros(alg.dim_g), np.zeros(alg.dim_v))))
    vals = np.array([complex(phi(alg.group_mult((xz, xv), k.apply(yz, yv)))) for k in k_actions])
    vals = vals / pe
    avg = complex(np.mean(vals))
    target = (complex(phi((xz, xv))) / pe) * (complex(phi((yz, yv))) / pe)
    stderr = float(np.sqrt(np.sum(np.abs(vals - avg) ** 2)) / len(vals))
    return FunctionalEquationReport(
        residual=float(abs(avg - target)), stderr=stderr, samples=len(vals)
    )
