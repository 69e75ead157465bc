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

One kernel, _v_factor, builds the v-factor over the coordinate runs of
fock.kx_blocks and checks its arguments; it is vectorized over leading
axes of v.
psi_closed evaluates it at one point, phi_caseI_closed at one point
with the sphere average of the phase, and phi_orbit on the whole stack
of transformed points pi(g) v.

canonical_polynomials gives the Gram-Schmidt invariants in closed form:
the block norms have independent Gamma laws under the Gaussian weight,
so they are products of normalized one-variable Laguerre polynomials.

Conventions: the closed forms are stated in the symplectically
normalized coordinates in which every frequency equals |lam| (see
fock.psi_numeric); the spherical traces are UNNORMALIZED, with value
dim W at the identity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import comb
from typing import Optional

import numpy as np

from .algebra import LauretAlgebra
from .forms import Functional
from .numerics import as_complex_vector, as_rng, laguerre, mc_mean, require_budget, sphere_character
from .fock import kx_blocks, monomials_of_degree, run_degrees


@dataclass(frozen=True)
class SphericalIndex:
    """Case label, frequency, per-case component index, and the case
    parameters needed by the closed forms.

    lam is the signed scalar frequency used by psi and must be nonzero
    (the zero functional has no Fock model); functional (when set)
    carries the full direction data used by phi_orbit.
    """

    case: str
    lam: float
    index: tuple
    params: dict = field(default_factory=dict)
    functional: Optional[Functional] = None

    def __post_init__(self):
        if self.lam == 0:
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


def _v_factor(case, params, index, alam, v, scale):
    """scale times the v-factor of the closed psi at the points v of V,
    shape (..., dim_v); scale is the caller's factor in the central
    variable (a phase, or the sphere average for phi in case I).

    The v-factor is the Gaussian envelope e^{-alam |v|^2 / 4} times one
    Laguerre block per coordinate run of fock.kx_blocks, at the run
    degrees of the index (fock.run_degrees).
    """
    runs = kx_blocks(case, params)
    if runs is None:
        raise NotImplementedError(f"no closed psi for case {case!r} with parameters {params}")
    degrees = run_degrees(case, index)
    # the empty-run scan only where a run is empty keeps the check
    # cheap on the per-point path of the functional equation
    if len(degrees) != len(runs) or (
            0 in runs and any(deg for size, deg in zip(runs, degrees) if not size)):
        raise ValueError(f"index {tuple(map(int, index))} needs one degree per run of {runs}, "
                         "and degree 0 on an empty run")
    count = sum(runs)
    z = as_complex_vector(v, count)
    sq = z.real**2 + z.imag**2
    # a product with ones sums a short last axis several times faster
    # than .sum on a stack of points; one coordinate needs no sum
    total = sq[..., 0] if count == 1 else sq @ np.ones(count)
    out = 1.0
    a = 0
    for size, deg in zip(runs, degrees):
        if not size:
            continue
        # the total and single coordinates need no further sum
        if size == count:
            x = total
        elif size == 1:
            x = sq[..., a]
        else:
            x = sq[..., a:a + size] @ np.ones(size)
        out = out * laguerre(int(deg), size - 1, alam * x / 2.0)
        a += size
    return scale * out * np.exp(-alam * total / 4.0)


def psi_closed(idx: SphericalIndex, t, v):
    """Closed-form psi at (t, v); t is the scalar central coordinate of
    the reduced group (the pairing <Y, z>).

    Supported: the cases with coordinate runs (fock.kx_blocks): I, V,
    VI, VII, IX, III; VIII with k = 1.  Values at the identity equal
    dim W.  v must have the case's dimension, and the index one degree
    per run.
    """
    lam = float(idx.lam)
    phase = np.exp(1j * lam * float(t))
    return complex(_v_factor(idx.case, idx.params, idx.index, abs(lam), v, phase))


def phi_caseI_closed(lam, j, z, v):
    """Case I spherical function in closed form, z in g = R^3 and v in
    R^(4n).

    The angular factor is the normalized sphere average
    sphere_character(|lam| |z|) (value 1 at z = 0); the radial factor is
    the Laguerre envelope of psi.  Unnormalized: value C(2n-1+j, j) at
    the identity.
    """
    lam = abs(float(lam))
    if lam == 0:
        raise ValueError("lam must be nonzero")
    z = np.asarray(z, dtype=float).reshape(-1)
    if len(z) != 3:
        raise ValueError(f"case I needs z in R^3, got length {len(z)}")
    n, rem = divmod(np.shape(v)[-1], 4)
    if rem or not n:
        raise ValueError(f"case I needs v in R^(4n) with n >= 1, got length {np.shape(v)[-1]}")
    angular = sphere_character(lam * float(np.linalg.norm(z)))
    return complex(_v_factor("I", {"n": n}, (j,), lam, v, angular))


def phi_orbit(idx: SphericalIndex, z, v, samples=20000, seed=0):
    """Monte-Carlo orbit average realizing the generic spherical
    function at the point (z, v) of N.

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
    if samples < 2:
        raise ValueError("phi_orbit needs samples >= 2 for a standard error")
    alg = fn.alg
    verdict = fn.classify()
    if not verdict.square_integrable:
        raise ValueError("phi_orbit needs a square-integrable functional")
    alam = fn.norm
    z = np.asarray(z, dtype=float).reshape(alg.dim_g)
    v = np.asarray(v, dtype=float).reshape(alg.dim_v)
    require_budget(samples * alg.dim_v**2, f"{samples} orbit samples of {alg.dim_v}^2 V-matrix entries")
    vmats = alg.ops.sample_vmats(as_rng(seed), samples)
    pair = alg.orbit_pairing(vmats, fn.y, z)
    w = np.einsum("sab,b->sa", vmats, v)
    vals = _v_factor(idx.case, idx.params, idx.index, alam, w, np.exp(1j * alam * pair))
    mean, stderr = mc_mean(vals)
    return SphericalValue(value=complex(mean), method="orbit-MC", stderr=stderr)


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

    @property
    def degree(self):
        return sum(self.leading)

    def evaluate(self, svals):
        """Value at generator values svals, shape (..., ngens): the
        product over generators of L_a^alpha(lam s / 2) / L_a^alpha(0)
        at the leading exponents a, by the Laguerre recurrence; coeffs
        drops the terms below 1e-14, which s^k multiplies back up from
        degree about 16 on.  Leading axes are kept, and a single 1-d
        point gives a float."""
        svals = np.asarray(svals, dtype=float)
        if svals.ndim == 0 or svals.shape[-1] != len(self.alphas):
            raise ValueError(f"expected generator values of shape (..., {len(self.alphas)})")
        out = np.ones(svals.shape[:-1])
        for g, (a, alpha) in enumerate(zip(self.leading, self.alphas)):
            out = out * (laguerre(a, alpha, self.lam * svals[..., g] / 2.0) / laguerre(a, alpha, 0.0))
        return float(out) if svals.ndim == 1 else out

    def coefficient(self, expo):
        for e, c in self.coeffs:
            if e == tuple(expo):
                return c
        return 0.0


_GENERATORS = {
    # case -> callable(params dict) -> (labels, alphas)
    "VII": lambda p: (("|v|^2",), (int(p["n"]) - 1,)),
    "VIII": lambda p: (("|u|^2", "|w|^2"), (0, 0)) if int(p["k"]) == 1 else None,
    "IV": lambda p: (("|u|^2", "|w|^2"), (2 * int(p["n"]) - 1, 2 * int(p["n"]) - 1)),
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

    Supported: VII (generator |v|^2), VIII with k = 1 (|u|^2, |w|^2),
    IV (block norms |u|^2, |w|^2).  Cross invariants beyond block norms
    are out of scope.  `params` is the case-parameter dict, as in
    build_case.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if max_total_degree < 0 or int(max_total_degree) != max_total_degree:
        raise ValueError("max_total_degree must be a nonnegative integer")
    gens = _GENERATORS.get(case)
    if gens is None:
        raise NotImplementedError(f"no invariant generators for case {case!r}")
    made = gens(params)
    if made is None:
        raise NotImplementedError(f"case {case!r} invariant polynomials are limited to block-norm generators (k = 1)")
    labels, alphas = made
    D = int(max_total_degree)
    # the polynomial of leading exponent a has prod(a_g + 1) coefficients,
    # C(D + 2g, 2g) in all for g generators
    ncoef = comb(D + 2 * len(alphas), 2 * len(alphas))
    require_budget(ncoef, f"{ncoef} canonical-polynomial coefficients up to degree {D}")
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
