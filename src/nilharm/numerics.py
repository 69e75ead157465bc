"""Shared numerical kernels: Laguerre recurrences, Haar sampling and
tensor-product quadrature.

The Haar samplers of O(n), SO(n), U(n), SU(n) and Sp(n) take an
optional size.  With it they return a stack of size samples, drawn as
one Gaussian array whose C order is the per-sample stream ((size, n, n)
for O/SO, real and then imaginary parts (size, 2, n, n) for U/SU,
(size, n, n, 4) for Sp) and orthonormalized in one stacked QR or one
vectorized Gram-Schmidt.  Without it they return element 0 of a
one-sample stack, so a sized draw equals as many unsized draws from the
same generator.

Gauss-Legendre rules are computed once per node count (leggauss) and
shared read-only.  Everything here is deterministic given an explicit
seed, and grid, Fock-matrix and Monte Carlo sample sizes are guarded by
the NILHARM_BUDGET environment variable (total tensor nodes or matrix
entries; default 3e7) through require_budget.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from . import quat

DEFAULT_BUDGET = 30_000_000


class BudgetError(RuntimeError):
    """Raised when a requested grid exceeds the configured node budget."""


def node_budget():
    raw = os.environ.get("NILHARM_BUDGET", "")
    if not raw:
        return DEFAULT_BUDGET
    return int(float(raw))


def require_budget(total, what):
    """Return total, or raise BudgetError when it exceeds NILHARM_BUDGET.

    Callers size an allocation first and pass the estimate with a
    description (what), so oversize requests fail before allocating."""
    if total > node_budget():
        raise BudgetError(f"{what} exceed NILHARM_BUDGET={node_budget()}")
    return total


def as_rng(seed):
    """Coerce an int seed (or an existing Generator) to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_complex_vector(v, n):
    """A point of C^n from n complex numbers, 2n interleaved reals
    (Re z_1, Im z_1, Re z_2, ...) or n reals; leading axes are kept."""
    v = np.asarray(v)
    if np.iscomplexobj(v):
        if v.shape[-1] != n:
            raise ValueError(f"expected {n} complex coordinates")
        return v.astype(complex)
    if v.shape[-1] == 2 * n:
        # interleaved float64 pairs are the memory layout of complex128
        return np.ascontiguousarray(v, dtype=float).view(complex).copy()
    if v.shape[-1] == n:
        return v.astype(complex)
    raise ValueError(f"cannot interpret shape {v.shape} as C^{n}")


# ---------------------------------------------------------------------------
# Laguerre polynomials
# ---------------------------------------------------------------------------

def laguerre(k, alpha, x):
    """Generalized Laguerre polynomial L_k^alpha(x), vectorized in x.

    Uses the stable upward three-term recurrence

        (m+1) L_{m+1} = (2m+1+alpha-x) L_m - (m+alpha) L_{m-1}.
    """
    if k < 0 or int(k) != k:
        raise ValueError("k must be a nonnegative integer")
    if alpha <= -1:
        raise ValueError("alpha must exceed -1")
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for m in range(int(k)):
        prev, cur = cur, ((2 * m + 1 + alpha - x) * cur - (m + alpha) * prev) / (m + 1)
    return cur


def laguerre_all(kmax, alpha, x):
    """All of L_0^alpha ... L_kmax^alpha at once; shape (kmax+1,) + x.shape.

    Runs the recurrence of laguerre in place, with the same operations
    in the same order, so row k equals laguerre(k, alpha, x) bit for bit.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        np.subtract(1.0 + alpha, x, out=out[1])
    tmp = np.empty(x.shape)
    for m in range(1, kmax):
        nxt = out[m + 1]
        np.subtract(2 * m + 1 + alpha, x, out=nxt)
        nxt *= out[m]
        np.multiply(m + alpha, out[m - 1], out=tmp)
        nxt -= tmp
        nxt /= m + 1
    return out


def sphere_character(a):
    """Normalized average of exp(i a <xi, e>) over the unit sphere S^2.

    Equals sin(a)/a, with the even Taylor series used near a = 0; the
    classical Bessel form sqrt(pi/(2a)) J_{1/2}(a) is proportional to
    this (we keep the normalization value 1 at a = 0).
    """
    a = np.asarray(a, dtype=float)
    small = np.abs(a) < 1e-4
    a2 = a * a
    series = 1.0 - a2 / 6.0 + a2 * a2 / 120.0
    with np.errstate(invalid="ignore", divide="ignore"):
        full = np.where(small, series, np.sin(np.where(small, 1.0, a)) / np.where(small, 1.0, a))
    return full if full.shape else float(full)


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def _sized(stack, size):
    """The stack, or its only element when the caller gave no size."""
    return stack if size is not None else stack[0]


def _qr_haar(z):
    """Stacked QR with the diagonal phase fix (Mezzadri,
    arXiv:math-ph/0609050) that makes each Q factor Haar distributed."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_orthogonal(n, rng, size=None):
    return _sized(_qr_haar(rng.standard_normal((1 if size is None else size, n, n))), size)


def haar_special_orthogonal(n, rng, size=None):
    q = haar_orthogonal(n, rng, 1 if size is None else size)
    neg = np.linalg.det(q) < 0
    q[neg, :, 0] = -q[neg, :, 0]
    return _sized(q, size)


def haar_unitary(n, rng, size=None):
    g = rng.standard_normal((1 if size is None else size, 2, n, n))
    return _sized(_qr_haar((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)), size)


def haar_special_unitary(n, rng, size=None):
    u = haar_unitary(n, rng, 1 if size is None else size)
    det = np.linalg.det(u)
    return _sized(u * (det ** (-1.0 / n))[:, None, None], size)


def haar_symplectic_quat(n, rng, size=None):
    """Haar sample of Sp(n) as an (n, n, 4) quaternionic unitary matrix.

    Quaternionic Ginibre followed by quaternionic modified Gram-Schmidt,
    run on all samples at once; the diagonal "R" entries are positive
    reals, which fixes the phase ambiguity exactly as in the complex QR
    construction.
    """
    m = rng.standard_normal((1 if size is None else size, n, n, 4))
    for col in range(n):
        v = m[:, :, col]
        for prev in range(col):
            u = m[:, :, prev]
            # quaternionic inner product <u, v> = sum conj(u_a) v_a
            coef = quat.qmul(quat.qconj(u), v).sum(axis=1)
            v = v - quat.qmul(u, coef[:, None])
        nrm = np.sqrt((v ** 2).sum(axis=(1, 2)))
        m[:, :, col] = v / nrm[:, None, None]
    return _sized(m, size)


# ---------------------------------------------------------------------------
# Tensor-product quadrature
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def leggauss(nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per
    node count; the arrays are shared between callers and read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product grid description.

    nodes is the per-axis node count (at least 1 for Gauss-Legendre, 2
    for the trapezoid rule); box the per-axis half-width (scalar
    broadcasts); rule "gauss-legendre" or "trapezoid".
    """

    nodes: int
    box: tuple
    rule: str = "gauss-legendre"

    def __post_init__(self):
        least = {"gauss-legendre": 1, "trapezoid": 2}.get(self.rule)
        if least is None:
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.nodes < least:
            raise ValueError(f"the {self.rule} rule needs at least {least} nodes, got {self.nodes}")

    @staticmethod
    def cube(nodes, half_width, dim, rule="gauss-legendre"):
        return QuadratureSpec(nodes=nodes, box=(float(half_width),) * dim, rule=rule)

    @property
    def dim(self):
        return len(self.box)

    def axis_rule(self, half_width):
        if self.rule == "gauss-legendre":
            x, w = leggauss(self.nodes)
            return x * half_width, w * half_width
        x = np.linspace(-half_width, half_width, self.nodes)
        w = np.full(self.nodes, 2.0 * half_width / (self.nodes - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return x, w

    def check_budget(self):
        """Total tensor nodes, or BudgetError when they exceed
        NILHARM_BUDGET."""
        total = self.nodes ** self.dim
        return require_budget(total, f"{self.nodes}^{self.dim} = {total} nodes")

    def grid(self):
        """Return (points, weights): (P, dim) nodes and (P,) weights."""
        total = self.check_budget()
        axes, wts = zip(*(self.axis_rule(h) for h in self.box))
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
        wmesh = np.meshgrid(*wts, indexing="ij")
        weights = np.ones(total)
        for w in wmesh:
            weights = weights * w.ravel()
        return points, weights

