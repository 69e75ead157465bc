"""Spherical functions: closed Laguerre forms, orbit Monte Carlo, and
canonical invariant polynomials.

Two layers of functions appear.  psi is the partial trace of the
representation over one metaplectic component, a function on the
Heisenberg-type quotient (t, v) with t the pairing of the central
variable with the direction of the functional; the paper's closed forms
are products of Laguerre polynomials times the Gaussian envelope.  phi
is the K-spherical function of the full group, an orbit average in the
frame of the chamber element h conjugate to the functional,

    phi(z, v) = avg over Haar g of
        e^{i <Ad(g^-1) h, z>} * (psi_h v-factor at pi(g) v),

computed by Monte Carlo over the full compact factor G' (the integrand
is right-torus-invariant, so full-group Haar sampling realizes the
quotient integral exactly in law).  pi(h) acts on complex coordinate a
of V as multiplication by 1j mu_a (LauretAlgebra.weight_matrix), and
psi_h gives coordinate a the frequency |mu_a|.  The function phi is the
one entry point: it alone picks the closed form or phi_orbit.

A SphericalIndex resolves and checks its K_x-type once, when it is
built, into the coordinate runs of fock.kx_blocks and one degree per
run, the index.  The one kernel, _v_factor, reads those and one
frequency per complex coordinate without further checks, and is
vectorized over leading axes of v.  psi_closed and phi_caseI_closed
(with the sphere average of the phase) give every coordinate |lam|;
phi_orbit gives the points pi(g) v the weights of h, block by block of
one orbit pass.

canonical_polynomials gives the Gram-Schmidt invariants in closed form:
the block norms have independent Gamma laws under the Gaussian weight,
so they are products of normalized one-variable Laguerre polynomials.

Conventions: psi_closed is stated in the symplectically normalized
coordinates in which every frequency equals |lam| (see
fock.psi_numeric), phi_orbit in h's frame.  The spherical traces are
UNNORMALIZED, with value dim W at the identity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import comb, isfinite, sqrt
from typing import Optional

import numpy as np

from .algebra import LauretAlgebra
from .cases import case_params
from .forms import Functional, functional, weight_table
from .numerics import as_complex_vector, as_rng, is_count, laguerre, mc_mean, require_budget, sphere_character
from .fock import check_degrees, kx_blocks, monomials_of_degree


@dataclass(frozen=True)
class SphericalIndex:
    """Case label, signed frequency lam, component index, the case
    parameters (the dict of build_case) and, for phi and phi_orbit, the
    functional.  Construction checks the parameters (fock.kx_blocks
    calls cases.case_params), stores the index as a tuple of degrees,
    one per run, checks it once (fock.check_degrees) and resolves runs,
    the coordinate runs of fock.kx_blocks, and mu, the read-only
    frequency |lam| of every complex coordinate that psi_closed passes
    to _v_factor; NotImplementedError where the K_x-types are not run
    products."""

    case: str
    lam: float
    index: tuple
    params: dict
    functional: Optional[Functional] = None
    runs: tuple = field(init=False)
    mu: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        runs = kx_blocks(self.case, self.params)
        if runs is None:
            raise NotImplementedError(f"case {self.case} {self.params} has no K_x-type runs, "
                                      "so no closed psi or orbit integrand")
        object.__setattr__(self, "index", tuple(self.index))
        check_degrees(self.lam, runs, self.index)
        mu = np.full(sum(runs), abs(float(self.lam)))
        mu.flags.writeable = False
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "mu", mu)


def spherical_index(alg: LauretAlgebra, x, index) -> SphericalIndex:
    """Build a SphericalIndex from a functional (see forms.functional)."""
    fn = functional(alg, x)
    return SphericalIndex(
        case=alg.spec.case,
        lam=fn.norm,
        index=tuple(np.atleast_1d(index).tolist()),
        params=dict(alg.spec.params),
        functional=fn,
    )


@dataclass(frozen=True)
class SphericalValue:
    """A spherical-function value with its evaluation method."""

    value: complex
    method: str  # "closed-form" | "orbit-MC"
    stderr: float = 0.0


def _v_factor(runs, degrees, mu, v, scale):
    """scale times the v-factor of the closed psi at the points v of V,
    shape (..., dim_v); mu holds one nonnegative frequency per complex
    coordinate, and scale is the caller's factor in the central variable
    (a phase, or the sphere average for phi in case I).

    The v-factor is the Gaussian envelope e^{-sum_a mu_a |v_a|^2 / 4}
    times one Laguerre block L_deg^(size - 1)(sum_{a in run} mu_a
    |v_a|^2 / 2) per coordinate run, at the run degrees of an index
    (SphericalIndex.runs and index).
    """
    mu = np.asarray(mu, dtype=float)
    z = as_complex_vector(v, len(mu))
    sq = z.real**2 + z.imag**2
    out = 1.0
    a = 0
    for size, deg in zip(runs, degrees):
        # L_0 = 1, and an empty run has degree 0
        if deg:
            # a product with mu sums a short last axis several times
            # faster than .sum on a stack of points
            out = out * laguerre(deg, size - 1, (sq[..., a:a + size] @ mu[a:a + size]) / 2.0)
        a += size
    return scale * out * np.exp(-(sq @ mu) / 4.0)


def psi_closed(idx: SphericalIndex, t, v):
    """Closed-form psi at (t, v); t is the scalar central coordinate of
    the reduced group (the pairing <Y, z>).

    Supported: the cases with coordinate runs (fock.kx_blocks).  Values
    at the identity equal dim W.  v must have the case's dimension;
    ValueError unless t, v and lam t are finite."""
    lam, t = float(idx.lam), float(t)
    if not (isfinite(t) and np.isfinite(v).all()):
        raise ValueError("psi_closed needs finite t and v")
    if not isfinite(lam * t):
        raise ValueError(f"psi_closed: lam t = {lam!r} x {t!r} overflows")
    phase = np.exp(1j * lam * t)
    return complex(_v_factor(idx.runs, idx.index, idx.mu, v, phase))


def phi_caseI_closed(lam, j, z, v):
    """Case I spherical function in closed form, z in g = R^3 and v in
    R^(4n).

    The angular factor is the normalized sphere average
    sphere_character(|lam| |z|) (value 1 at z = 0); the radial factor is
    the Laguerre envelope of psi.  Unnormalized: value C(2n-1+j, j) at
    the identity.  ValueError unless z, v and |lam| |z| are finite.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    if len(z) != 3:
        raise ValueError(f"case I needs z in R^3, got length {len(z)}")
    n, rem = divmod(np.shape(v)[-1], 4)
    if rem or not n:
        raise ValueError(f"case I needs v in R^(4n) with n >= 1, got length {np.shape(v)[-1]}")
    if not (np.isfinite(z).all() and np.isfinite(v).all()):
        raise ValueError("phi_caseI_closed needs finite z and v")
    check_degrees(lam, (2 * n,), (j,))
    lam = abs(float(lam))
    # the computation of np.linalg.norm for a real vector
    znorm = sqrt(z @ z)
    if not isfinite(lam * znorm):
        raise ValueError(f"phi_caseI_closed: |lam| |z| = {lam!r} x {znorm!r} overflows")
    angular = sphere_character(lam * znorm)
    return complex(_v_factor((2 * n,), (j,), np.full(2 * n, lam), v, angular))


def phi_orbit(idx: SphericalIndex, z, v, samples=20000, seed=0):
    """Monte-Carlo orbit average realizing the generic spherical
    function at the point (z, v) of N.

    The integrand is taken in h's frame (see the module docstring): the
    phase pairs Ad(g^-1) h with z, and coordinate a of pi(g) v has the
    frequency |mu_a| of forms.weight_table.
    One orbit pass (LauretAlgebra.orbit_pass) builds the one Kronecker
    form of (h, z) per call and draws, pairs and evaluates the samples
    in blocks of algebra.orbit_block(dim_v), about 2^15 V-matrix entries
    each, into one array of values; mc_mean runs once on all of them.
    Every case that reaches here draws each sample's variates together,
    so the blocks draw exactly the samples of one stack (BLAS may round
    a row of the pairing differently by the row count, in the last
    bits).  The budget check covers the total samples * dim_v^2 before
    the first block, and kronecker_forms checks its dim_v^4 entries.

    Parameters
    ----------
    idx : SphericalIndex with its functional set
    z : g-coordinates of the central variable
    v : V-coordinates
    samples : Haar sample count over G', at least 2 so that the
        standard error is defined (samples * dim_v^2 <= NILHARM_BUDGET)
    seed : RNG seed (bit-reproducible)

    Returns SphericalValue with the Monte-Carlo standard error.
    """
    fn = idx.functional
    if fn is None:
        raise ValueError("phi_orbit needs an index built from a functional")
    if not is_count(samples, 2):
        raise ValueError("phi_orbit needs an integer samples >= 2 for a standard error")
    alg = fn.alg
    if not fn.verdict.square_integrable:
        raise ValueError("phi_orbit needs a square-integrable functional")
    angles, zc, _ = fn.chamber
    h = alg.from_chamber(angles, zc)
    mu = np.abs(weight_table(alg, fn))
    z = np.asarray(z, dtype=float).reshape(alg.dim_g)
    v = np.asarray(v, dtype=float).reshape(alg.dim_v)
    if not np.isfinite(np.concatenate((z, v))).all():
        raise ValueError("phi_orbit needs finite z and v")
    require_budget(samples * alg.dim_v**2, "{} orbit samples of {}^2 V-matrix entries", samples, alg.dim_v)
    forms = alg.kronecker_forms(h, z)
    vals = np.concatenate([
        _v_factor(idx.runs, idx.index, mu, np.einsum("sab,b->sa", vmats, v), np.exp(1j * pair))
        for vmats, pair in alg.orbit_pass(as_rng(seed), samples, forms)
    ])
    mean, stderr = mc_mean(vals)
    return SphericalValue(value=complex(mean), method="orbit-MC", stderr=stderr)


def phi(idx: SphericalIndex, z, v, samples=20000, seed=0) -> SphericalValue:
    """The spherical function of idx at (z, v): psi_closed at t = <y, z> on
    VII (Benson, Jenkins and Ratcliff, 1992) and phi_caseI_closed on I,
    with stderr 0, else phi_orbit, which also rejects an index without a
    functional.  The case label chooses, not a trivial G': VI(2) has one,
    but its h-frame frequency is |lam| / sqrt(2), not |lam|."""
    if idx.functional is None or idx.case not in ("I", "VII"):
        return phi_orbit(idx, z, v, samples=samples, seed=seed)
    if idx.case == "I":
        return SphericalValue(phi_caseI_closed(idx.lam, idx.index[0], z, v), "closed-form")
    return SphericalValue(psi_closed(idx, float(idx.functional.y @ z), v), "closed-form")


# ---------------------------------------------------------------------------
# canonical invariant polynomials
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


_GENERATORS = {
    # case -> one label per non-empty run of fock.kx_blocks (VIII's last
    # is empty at n = 0) or, for IV, per C^{2n} weight space
    "VII": ("|v|^2",),
    "VIII": ("|u|^2", "|w|^2", "|y|^2"),
    "IV": ("|u|^2", "|w|^2"),
}


def _laguerre_rows(dmax, alpha, lam):
    """Coefficients of s^0 ... s^a in L_a^alpha(lam s / 2) / L_a^alpha(0)
    for a = 0 ... dmax, by the ratio of consecutive terms,

        c_0 = 1,  c_{i+1} = c_i (-lam / 2) (a - i) / ((i + 1) (i + 1 + alpha)).
    """
    rows = []
    for a in range(dmax + 1):
        i = np.arange(a)
        steps = (-lam / 2.0) * ((a - i) / ((i + 1.0) * (i + 1.0 + alpha)))
        rows.append(np.concatenate([[1.0], np.cumprod(steps)]))
    return rows


def canonical_polynomials(case, params, max_total_degree, lam=1.0):
    """Orthogonal invariant polynomials of total degree <= max_total_degree
    against the Gaussian weight e^{-lam |v|^2 / 2} dv, one per generator
    monomial s^a in graded-lex order, normalized to value 1 at the origin.

    Each generator is a block squared norm s_g = |v_block|^2; under the
    weight the blocks are independent and s_g is Gamma distributed with
    shape alpha_g + 1 (alpha_g = real block dimension / 2 - 1) and scale
    2 / lam.  For this product measure Gram-Schmidt in graded-lex order
    returns exactly

        q_a(s) = prod_g L_{a_g}^{alpha_g}(lam s_g / 2) / L_{a_g}^{alpha_g}(0):

    every other monomial s^b with |b| <= |a| has some b_g < a_g, so the
    expectation of q_a s^b factorizes through E[L_{a_g} s_g^{b_g}] = 0;
    q_a is s^a plus earlier monomials b <= a; and Gram-Schmidt is unique
    up to the scale fixed at the origin.  The coefficients are built as
    outer products of the one-variable rows (_laguerre_rows), accurate to
    rounding at any degree; those below 1e-14 are dropped, except the
    leading one.  The coefficient count is checked against
    NILHARM_BUDGET before anything is built.

    The blocks are the non-empty runs of fock.kx_blocks (alpha_g = size
    - 1), one polynomial per K_x-type: VII |v|^2, VIII (k = 1) |u|^2,
    |w|^2 and, for n >= 1, |y|^2.  IV, without runs, has |u|^2 and |w|^2
    on its two C^{2n} weight spaces and no cross invariants, so d + 1
    polynomials of degree d, fewer than its K_x-types from d = 2 on:
    3 against 4 at d = 2 and 4 against 6 at d = 3 for IV(1), 5 and 8
    for IV(2).  params goes through cases.case_params first.
    """
    p = case_params(case, params)
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    if not is_count(max_total_degree, 0):
        raise ValueError(f"max_total_degree must be a nonnegative integer, got {max_total_degree!r}")
    labels = _GENERATORS.get(case)
    if labels is None:
        raise NotImplementedError(f"no invariant generators for case {case!r}")
    runs = (2 * p["n"],) * 2 if case == "IV" else kx_blocks(case, p)
    if runs is None:
        raise NotImplementedError(f"case {case!r} invariant polynomials are limited to block-norm generators (k = 1)")
    alphas = tuple(size - 1 for size in runs if size)
    labels = labels[:len(alphas)]
    D = int(max_total_degree)
    # the polynomial of leading exponent a has prod(a_g + 1) coefficients,
    # C(D + 2g, 2g) in all for g generators
    ncoef = comb(D + 2 * len(alphas), 2 * len(alphas))
    require_budget(ncoef, "{} canonical-polynomial coefficients up to degree {}", ncoef, D)
    rows = [_laguerre_rows(D, a, lam) for a in alphas]
    out = []
    for d in range(D + 1):
        for mon in monomials_of_degree(len(alphas), d):
            table = functools.reduce(np.multiply.outer, [rows[g][a] for g, a in enumerate(mon)])
            # np.ndindex walks the exponents in sorted (lex) order
            coeffs = tuple(
                (e, c) for e, c in zip(np.ndindex(table.shape), table.ravel().tolist())
                if abs(c) > 1e-14 or e == mon
            )
            out.append(InvariantPolynomial(case=case, generators=labels, alphas=alphas,
                                           lam=float(lam), coeffs=coeffs, leading=mon))
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


def functional_equation_residual(phi, alg: LauretAlgebra, x_point, y_point, k_actions):
    """|avg_k phi~(x (k y)) - phi~(x) phi~(y)| for the normalized
    spherical function phi~ = phi / phi(e).

    phi is a callable on one point (z, v) returning a complex value;
    k_actions is an OrthAutomorphism stack, either Haar samples of K
    (stderr reported) or a deterministic quadrature (treat stderr as
    informational only).  The points x (k y) are formed for the whole
    stack at once, and phi is called once per point.
    """
    if len(k_actions) == 0:
        raise ValueError("functional_equation_residual needs at least one K-action")
    xz, xv = x_point
    yz, yv = y_point
    pe = complex(phi((np.zeros(alg.dim_g), np.zeros(alg.dim_v))))
    zs, vs = alg.group_mult((xz, xv), k_actions.apply(yz, yv))
    vals = np.array([complex(phi(p)) for p in zip(zs, vs)])
    avg, stderr = mc_mean(vals / pe)
    target = (complex(phi((xz, xv))) / pe) * (complex(phi((yz, yv))) / pe)
    return FunctionalEquationReport(
        residual=float(abs(avg - target)), stderr=stderr, samples=len(vals)
    )
