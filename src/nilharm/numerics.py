"""Shared numerical kernels: the Laguerre recurrence (laguerre_all;
laguerre is its row k), the Monte Carlo estimator (mc_mean), Haar
sampling and tensor-product quadrature.

laguerre_all and sphere_character have two forms, chosen by the shape
of the argument alone.  Arrays run numpy ufuncs over all points (in
place for the recurrence).  One point (a 0-d x with a scalar order, a
0-d a) runs the same operations in the same order in Python floats,
whose + - * / are the IEEE operations of numpy, and keeps np.sin, so
both forms give the same bits while one point costs about its
arithmetic rather than numpy's per-call overhead.

The Haar samplers of O(n), SO(n), U(n), SU(n) and Sp(n) take a size
and return a stack of size samples, drawn as one Gaussian array whose C
order is the per-sample stream ((size, n, n) for O/SO, real and then
imaginary parts (size, 2, n, n) for U/SU, (size, n, n, 4) for Sp) and
orthonormalized by Gram-Schmidt vectorized over the samples (twice per
column for O/U, _qr_haar; once, quaternionic, for Sp), so one stack of
size s equals s stacks of size 1 from the same generator.

Points of C^n are n complex numbers or 2n interleaved reals
(as_complex_vector).  Quadrature is the Gauss-Legendre tensor rule on a
cube (QuadratureSpec); its 1-d rules are computed once per node count
(leggauss) and shared read-only.  Everything here is deterministic
given an explicit seed, and grid, Fock-matrix and Monte Carlo sample
sizes are guarded by the NILHARM_BUDGET environment variable (total
tensor nodes or matrix entries; default 3e7) through require_budget.
"""

from __future__ import annotations

import functools
import math
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
    """A point of C^n from n complex numbers or 2n interleaved reals
    (Re z_1, Im z_1, Re z_2, ...); leading axes are kept.  complex128
    input comes back as it is, without a copy."""
    v = np.asarray(v)
    if np.iscomplexobj(v):
        if v.shape[-1] != n:
            raise ValueError(f"expected {n} complex coordinates")
        return v.astype(complex, copy=False)
    if v.shape[-1] == 2 * n:
        # interleaved float64 pairs are the memory layout of complex128
        return np.ascontiguousarray(v, dtype=float).view(complex).copy()
    raise ValueError(f"cannot interpret shape {v.shape} as C^{n}")


# ---------------------------------------------------------------------------
# Laguerre polynomials
# ---------------------------------------------------------------------------

# the scalar orders that laguerre_all runs in Python floats
_REALS = (int, float, np.integer, np.floating)


def laguerre(k, alpha, x):
    """Generalized Laguerre polynomial L_k^alpha(x), vectorized in x:
    row k of laguerre_all."""
    return laguerre_all(k, alpha, x)[int(k)]


def laguerre_all(kmax, alpha, x):
    """All of L_0^alpha ... L_kmax^alpha at once; shape (kmax+1,) + x.shape.

    Runs the stable upward recurrence (m+1) L_{m+1} = (2m+1+alpha-x) L_m
    - (m+alpha) L_{m-1} in place.  alpha may be an array that
    broadcasts against x (one order per entry).  A 0-d x with a Python
    or numpy scalar alpha runs the same steps in Python floats, whose
    + - * / are the IEEE operations of the array path, so both give the
    same bits.
    """
    if kmax < 0 or int(kmax) != kmax:
        raise ValueError("kmax must be a nonnegative integer")
    one_alpha = isinstance(alpha, _REALS)
    if (alpha <= -1) if one_alpha else (np.asarray(alpha) <= -1).any():
        raise ValueError("alpha must exceed -1")
    kmax = int(kmax)
    x = np.asarray(x, dtype=float)
    if one_alpha and not x.ndim:
        return np.array(_laguerre_floats(kmax, float(alpha), float(x)))
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    # out[k, ...] is a writable view also for a scalar x, where out[k]
    # is a numpy scalar that cannot take an out= result
    if kmax >= 1:
        np.subtract(1.0 + alpha, x, out=out[1, ...])
    tmp = np.empty(x.shape)
    for m in range(1, kmax):
        nxt = out[m + 1, ...]
        np.subtract(2 * m + 1 + alpha, x, out=nxt)
        nxt *= out[m]
        np.multiply(m + alpha, out[m - 1], out=tmp)
        nxt -= tmp
        nxt /= m + 1
    return out


def _laguerre_floats(kmax, alpha, x):
    """laguerre_all at one point, as a list of kmax+1 floats, with the
    array path's operations in its order."""
    out = [1.0]
    if kmax >= 1:
        out.append((1.0 + alpha) - x)
    for m in range(1, kmax):
        out.append((((2 * m + 1 + alpha) - x) * out[m] - (m + alpha) * out[m - 1]) / (m + 1))
    return out


def sphere_character(a):
    """Normalized average of exp(i a <xi, e>) over the unit sphere S^2.

    Equals sin(a)/a, with the even Taylor series used near a = 0; the
    classical Bessel form sqrt(pi/(2a)) J_{1/2}(a) is proportional to
    this (we keep the normalization value 1 at a = 0).  ValueError
    unless every a is finite.  A 0-d a gives a float, computed in Python
    floats with np.sin (math.sin may round differently).
    """
    a = np.asarray(a, dtype=float)
    if not a.ndim:
        a = float(a)
        if not math.isfinite(a):
            raise ValueError("sphere_character needs a finite argument")
        if abs(a) < 1e-4:
            a2 = a * a
            return 1.0 - a2 / 6.0 + a2 * a2 / 120.0
        return float(np.sin(a)) / a
    if not np.isfinite(a).all():
        raise ValueError("sphere_character needs a finite argument")
    small = np.abs(a) < 1e-4
    a2 = a * a
    series = 1.0 - a2 / 6.0 + a2 * a2 / 120.0
    return np.where(small, series, np.sin(np.where(small, 1.0, a)) / np.where(small, 1.0, a))


def mc_mean(vals):
    """(mean, stderr) of the S Monte Carlo samples vals, with
    stderr = sqrt(sum |v - mean|^2) / S; the mean keeps the dtype of
    vals (complex samples give a complex mean)."""
    mean = np.mean(vals)
    return mean, float(np.sqrt(np.sum(np.abs(vals - mean) ** 2)) / len(vals))


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def _qr_haar(z):
    """The Q factor with positive real diagonal R of each matrix of the
    stack z (..., n, n), which makes Q Haar distributed (Mezzadri,
    arXiv:math-ph/0609050).

    Classical Gram-Schmidt, run twice per column, over the whole stack
    one column at a time: the second pass restores orthogonality to
    rounding however close the columns are (Giraud, Langou and
    Rozloznik, 2005).  Each sample's columns see only that sample, so a
    stack equals its samples computed one at a time.
    """
    # rows of q are the columns of z, so every column is contiguous
    q = np.swapaxes(z, -1, -2).copy()
    for j in range(q.shape[-1]):
        v = q[..., j, :]
        prev = q[..., :j, :]
        for _ in range(2 if j else 0):
            # <prev_k, v> as the conjugate of sum prev_k conj(v): v is
            # shorter to conjugate than prev
            coef = np.einsum("...ki,...i->...k", prev, v.conj()).conj()
            v = v - np.einsum("...ki,...k->...i", prev, coef)
        q[..., j, :] = v / np.sqrt(np.einsum("...i,...i->...", v.conj(), v).real)[..., None]
    return np.swapaxes(q, -1, -2)


def haar_orthogonal(n, rng, size):
    return _qr_haar(rng.standard_normal((size, n, n)))


def haar_special_orthogonal(n, rng, size):
    q = haar_orthogonal(n, rng, size)
    neg = np.linalg.det(q) < 0
    q[neg, :, 0] = -q[neg, :, 0]
    return q


def haar_unitary(n, rng, size):
    g = rng.standard_normal((size, 2, n, n))
    return _qr_haar((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))


def haar_special_unitary(n, rng, size):
    u = haar_unitary(n, rng, size)
    det = np.linalg.det(u)
    return u * (det ** (-1.0 / n))[:, None, None]


def haar_symplectic_quat(n, rng, size):
    """Haar samples of Sp(n), a (size, n, n, 4) stack of quaternionic
    unitary matrices.

    Quaternionic Ginibre followed by quaternionic modified Gram-Schmidt,
    run on all samples at once; the diagonal "R" entries are positive
    reals, which fixes the phase ambiguity exactly as in the complex QR
    construction.
    """
    m = rng.standard_normal((size, n, n, 4))
    for col in range(n):
        v = m[:, :, col]
        for prev in range(col):
            u = m[:, :, prev]
            # quaternionic inner product <u, v> = sum conj(u_a) v_a
            coef = quat.qmul(quat.qconj(u), v).sum(axis=1)
            v = v - quat.qmul(u, coef[:, None])
        nrm = np.sqrt((v ** 2).sum(axis=(1, 2)))
        m[:, :, col] = v / nrm[:, None, None]
    return m


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
    """Gauss-Legendre tensor rule on the cube [-half_width, half_width]^dim
    with nodes (at least 1) per axis."""

    nodes: int
    half_width: float
    dim: int

    rule = "gauss-legendre"

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError(f"the {self.rule} rule needs at least 1 node, got {self.nodes}")

    @staticmethod
    def cube(nodes, half_width, dim):
        return QuadratureSpec(nodes=nodes, half_width=float(half_width), dim=dim)

    def check_budget(self):
        """Total tensor nodes, or BudgetError when they exceed
        NILHARM_BUDGET."""
        total = self.nodes ** self.dim
        return require_budget(total, f"{self.nodes}^{self.dim} = {total} nodes")

    def grid(self):
        """Return (points, weights): (P, dim) nodes and (P,) weights."""
        total = self.check_budget()
        x, w1 = leggauss(self.nodes)
        mesh = np.meshgrid(*(x * self.half_width,) * self.dim, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
        wmesh = np.meshgrid(*(w1 * self.half_width,) * self.dim, indexing="ij")
        weights = np.ones(total)
        for w in wmesh:
            weights = weights * w.ravel()
        return points, weights
