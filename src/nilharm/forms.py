"""Skew forms B_x on V, their Pfaffians, and square integrability.

A functional on the center g of n = g + V is identified with its metric
dual X in g.  The associated bilinear form is

    B_x(u, v) = <pi(X) u, v>,

and the coadjoint orbit of the functional is flat exactly when B_x is
nondegenerate ("square-integrable" below).  For most cases the absolute
Pfaffian of B_x has a closed product form over the weights of the
complexified V restricted to a Cartan subalgebra containing the
conjugated X; `pfaffian_via_weights` evaluates those products, while
`pfaffian_abs` computes |Pf| numerically from any skew matrix.
"""

from __future__ import annotations

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
    if len(ev) % 2 or np.count_nonzero(ev > 0) < half:
        return 0.0
    return float(np.prod(ev[half:]))


def pfaffian_abs(mat):
    """|Pf(M)| of a real skew-symmetric matrix, 0 when dim is odd.

    Computed as the product of the positive eigenvalues of 1j M, which
    is stable for the moderate dimensions used here.
    """
    return _pfaffian_of(np.linalg.eigvalsh(1j * np.asarray(mat, dtype=float)))


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
    """Decide square integrability of the functional dual to x.

    One spectrum of 1j B_x gives both answers.  B_x is skew, so its
    singular values are the moduli |mu| of that spectrum: the kernel
    dimension is the numerical nullity (|mu| at most _RANK_TOL times
    the largest one, all of V when B_x = 0), and |Pf| is the product of
    the upper half, exactly 0 when the kernel is nonzero (rounding
    would otherwise leave a product of tiny eigenvalues).
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("g-coordinates must be finite")
    ev = np.linalg.eigvalsh(1j * skew_form(alg, x))
    mod = np.abs(ev)
    kernel = int(np.count_nonzero(mod <= _RANK_TOL * np.max(mod, initial=0.0)))
    return SquareIntegrability(
        square_integrable=(kernel == 0 and alg.dim_v > 0),
        kernel_dim=kernel,
        pfaffian=_pfaffian_of(ev) if kernel == 0 else 0.0,
    )


class Functional:
    """A functional on g, dual to the g-coordinates x.

    Carries the polar data used downstream (the norm lam = |x| and the
    unit direction y) and the one chamber chart of x.
    """

    def __init__(self, alg: LauretAlgebra, x):
        x = np.asarray(x, dtype=float).copy()
        if x.shape != (alg.dim_g,) or not np.isfinite(x).all():
            raise ValueError(f"expected {alg.dim_g} finite g-coordinates")
        self.alg = alg
        self.x = x
        self.norm = float(np.linalg.norm(x))
        self.y = x / self.norm if self.norm > 0 else x.copy()

    @cached_property
    def chamber(self):
        """(angles, zc, regular): the per-factor dominant angles of the g'
        part of x, its central coordinates, and chamber regularity.  The
        weight tables, theta and the CLI all read this chart."""
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
        _, point = torus.to_chamber(rs, self.alg.ops.to_factor_mats(xp))
        return point.angles, zc, point.regular

    def classify(self) -> SquareIntegrability:
        return classify(self.alg, self.x)


def weight_table(alg: LauretAlgebra, x):
    """Weights of the complexified V against the conjugated direction of
    x, as (value, multiplicity) pairs; the form B_x has eigenvalue pairs
    +- 1j * value with that multiplicity.

    Only tabulated for the cases where V decomposes into explicit weight
    spaces (I, V, VI even, VII, VIII, IX); raises NotImplementedError
    otherwise.
    """
    if not alg.ops.has_weights:
        raise NotImplementedError(
            f"no tabulated weights for case {alg.spec.case}; use pfaffian_abs"
        )
    angles, zc, _ = Functional(alg, x).chamber
    return alg.ops.weights(angles, zc)


def pfaffian_via_weights(alg: LauretAlgebra, x):
    """|Pf(B_x)| as the product of |value|^(mult/2) over the weight
    table; agrees with pfaffian_abs(skew_form(alg, x)) on the tabulated
    cases.  Exactly 0 when a weight vanishes to rounding (|value| at
    most the classify tolerance times the largest), as in classify."""
    table = weight_table(alg, x)
    mods = [abs(value) for value, _ in table]
    if any(m <= _RANK_TOL * max(mods) for m in mods):
        return 0.0
    out = 1.0
    for value, mult in table:
        out *= abs(value) ** (mult / 2.0)
    return float(out)
