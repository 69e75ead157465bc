"""Skew forms B_x on V, their Pfaffians, and square integrability.

A functional on the center g of n = g + V is identified with its metric
dual X in g.  The associated bilinear form is

    B_x(u, v) = <pi(X) u, v>,

and the coadjoint orbit of the functional is flat exactly when B_x is
nondegenerate ("square-integrable" below).  Wherever V is complex the
absolute Pfaffian of B_x is the product of |mu_a| over the weights of
the Cartan element h conjugate to X on the complex coordinates of V
(`weight_table`, read from the case's coord_weights);
`pfaffian_via_weights` evaluates that product, while `pfaffian_abs`
computes |Pf| numerically from any skew matrix (one LU, through
slogdet).  The same weights are the frequencies of
spherical.phi_orbit in h's frame (the closed psi is stated in
normalized coordinates, every frequency |lam|).

A `Functional` holds the one spectrum of 1j B_x (`verdict`) and the one
chamber chart (`chamber`) of x.  Every entry point taking x accepts
g-coordinates or a `Functional` through `functional(alg, x)`, so
consecutive calls on the same coordinates share one spectrum and chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import torus
from .algebra import LauretAlgebra

_RANK_TOL = 1e-10


def skew_form(alg: LauretAlgebra, x):
    """Matrix M = pi(X) of the form B_x(u, v) = <M u, v> on V."""
    return alg.pi_of(x)


def _pfaffian_of(ev):
    """|Pf(M)| from the ascending spectrum of 1j M (pairs +-mu, zeros on
    the kernel): the product of its upper half, 0 when the dimension is
    odd or fewer than half the eigenvalues are positive."""
    half = len(ev) // 2
    if len(ev) % 2 or (ev > 0).sum() < half:
        return 0.0
    return float(ev[half:].prod())


def pfaffian_abs(mat):
    """|Pf(M)| of a real skew-symmetric matrix, 0 when dim is odd.

    Computed from one LU as sqrt |det M| (Cayley: Pf(M)^2 = det M), in
    logarithms through slogdet so that no determinant overflows below
    |Pf| of about 1e308; exactly 0 when the dimension is odd or the LU
    finds a zero pivot.  ValueError unless M is square and skew to rounding.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"pfaffian_abs needs a square matrix, got shape {mat.shape}")
    top = np.maximum.reduce  # ndarray.max without its Python wrapper
    if not top(abs(mat + mat.T), axis=None, initial=0.0) <= 1e-12 * top(abs(mat), axis=None, initial=0.0):
        raise ValueError("pfaffian_abs needs a finite skew-symmetric matrix: max |M + M^T| > 1e-12 max |M|")
    if len(mat) % 2:
        return 0.0
    sign, logdet = np.linalg.slogdet(mat)
    # np.exp: inf with a RuntimeWarning beyond the float range, as the
    # product of the eigenvalues gave, where math.exp raises
    return float(np.exp(logdet / 2)) if sign else 0.0


@dataclass(frozen=True)
class SquareIntegrability:
    """Classification verdict for one functional."""

    square_integrable: bool
    kernel_dim: int
    pfaffian: float

    @property
    def verdict(self):
        return "SquareIntegrable" if self.square_integrable else "Degenerate"


def classify(alg: LauretAlgebra, x) -> SquareIntegrability:
    """Square integrability of the functional x (Functional.verdict)."""
    return functional(alg, x).verdict


class Functional:
    """A functional on g, dual to the g-coordinates x: the norm lam = |x|
    and unit direction y (read-only like x, since one Functional is
    shared between calls), the spectrum verdict and the chamber chart."""

    def __init__(self, alg: LauretAlgebra, x):
        x = np.asarray(x, dtype=float).copy()
        if x.shape != (alg.dim_g,) or not np.isfinite(x).all():
            raise ValueError(f"expected {alg.dim_g} finite g-coordinates")
        self.alg = alg
        self.x = x
        self.norm = math.sqrt(x @ x)
        self.y = x / self.norm if self.norm > 0 else x.copy()
        x.flags.writeable = self.y.flags.writeable = False

    @cached_property
    def verdict(self) -> SquareIntegrability:
        """Square integrability of x from one spectrum of 1j B_x.  B_x is
        skew, so its singular values are the moduli |mu| of that spectrum:
        the kernel dimension is the numerical nullity (|mu| at most
        _RANK_TOL times the largest one, all of V when B_x = 0), and |Pf|
        is the product of the upper half, exactly 0 when the kernel is
        nonzero (rounding would otherwise leave a tiny product)."""
        ev = np.linalg.eigvalsh(1j * skew_form(self.alg, self.x))
        # the spectrum ascends, so its largest modulus sits at one end
        top = max(-ev[0], ev[-1]) if len(ev) else 0.0
        kernel = int((abs(ev) <= _RANK_TOL * top).sum())
        return SquareIntegrability(
            square_integrable=(kernel == 0 and self.alg.dim_v > 0),
            kernel_dim=kernel,
            pfaffian=_pfaffian_of(ev) if kernel == 0 else 0.0,
        )

    @cached_property
    def chamber(self):
        """(angles, zc, regular): the per-factor dominant angles of the g'
        part of x, its central coordinates, and chamber regularity.  The
        weight table, theta, phi_orbit and the CLI all read this chart."""
        xp, zc = self.alg.split_center(self.x)
        if self.alg.dim_gp == 0:
            return (), zc, True
        rs = self.alg.root_system()
        if not rs.factors:
            # g' is nonabelian but carries no implemented torus factor
            # (free case with odd n); chamber coordinates are undefined
            raise NotImplementedError(
                f"case {self.alg.spec.case} has no Cartan chamber for its "
                "g' part")
        point = torus.to_chamber(rs, self.alg.ops.to_factor_mats(xp), self.norm)
        return point.angles, zc, point.regular


def functional(alg: LauretAlgebra, x) -> Functional:
    """x itself when it is a Functional of alg, else alg's last Functional
    when its coordinates are byte-equal to np.asarray(x, float) (so -0.0
    is not 0.0), else a new one, which takes that one slot.  ValueError
    as in Functional, leaving the slot as it was."""
    if isinstance(x, Functional):
        if x.alg is not alg:
            raise ValueError("the Functional belongs to another algebra")
        return x
    x = np.asarray(x, dtype=float)
    last = alg.last_functional
    if last is None or last.x.shape != x.shape or last.x.tobytes() != x.tobytes():
        last = alg.last_functional = Functional(alg, x)
    return last


def weight_table(alg: LauretAlgebra, x):
    """The weights mu_a of the chamber element h of x on the dim_v / 2
    complex coordinates of V, a 1-d array: pi(h) acts on coordinate a as
    multiplication by 1j mu_a, so B_x has the eigenvalue pairs
    +- 1j mu_a.  NotImplementedError where V is not complex (II, VI with
    odd n)."""
    if not alg.ops.has_weights:
        raise NotImplementedError(
            f"case {alg.spec.case} has odd dim V, so no weights; use pfaffian_abs"
        )
    angles, zc, _ = functional(alg, x).chamber
    return alg.ops.coord_weights(angles, zc)


def pfaffian_via_weights(alg: LauretAlgebra, x):
    """|Pf(B_x)| as the product of |mu_a| over the weight table; agrees
    with pfaffian_abs(skew_form(alg, x)) wherever V is complex.  Exactly
    0 when a weight vanishes to rounding (|mu_a| at most the classify
    tolerance times the largest), as in classify."""
    # a handful of Python floats reduce faster than numpy calls would
    mods = np.abs(weight_table(alg, x)).tolist()
    if min(mods) <= _RANK_TOL * max(mods):
        return 0.0
    return math.prod(mods)
