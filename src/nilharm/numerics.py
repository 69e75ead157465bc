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

The Haar samplers of SO(n), U(n), SU(n) and Sp(n) take a size and
return a stack of size samples, drawn as one Gaussian array whose C
order is the per-sample stream (real and then imaginary parts
(size, 2, n, n) for U, (size, n, n, 4) for Sp) and orthonormalized by
Gram-Schmidt vectorized over the samples (twice per column for U;
once, quaternionic, for Sp).  SO/SU carry their determinant on the last
column: up to n = 4 they draw only n - 1 columns ((size, 1, n, n - 1)
and (size, 2, n, n - 1)) and fill in the last with the conjugate
cofactors of the others (_cofactors), beyond that they draw n columns
and multiply the last by conj(det).  SO/U/SU hold the stack
column-major, as planes q[p, c, r]: one contiguous vector over the
samples per part p (real, or real and imaginary), column c and row r,
so each step is a few long elementwise operations.  Sums over a short
axis are added left to right and complex products are spelled out in
real ones (_fold, _mul), so every sample rounds alike in any stack and
one stack of size s equals s stacks of size 1 from the same generator.

Points of C^n are n complex numbers or 2n interleaved reals
(as_complex_vector).  Quadrature is the Gauss-Legendre tensor rule on a
cube (QuadratureSpec); its 1-d rules are computed once per node count
(leggauss) and shared read-only; its points are column-major, each
coordinate column contiguous.  Everything here is deterministic
given an explicit seed, and grid, Fock-matrix and Monte Carlo sample
sizes are guarded by the NILHARM_BUDGET environment variable (total
tensor nodes or matrix entries; default 3e7) through require_budget.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from . import quat

DEFAULT_BUDGET = 30_000_000


class BudgetError(RuntimeError):
    """Raised when a requested grid exceeds the configured node budget."""


@functools.lru_cache(maxsize=1)
def _parse_budget(raw):
    return int(float(raw)) if raw else DEFAULT_BUDGET


def node_budget():
    """NILHARM_BUDGET, parsed once per distinct value of the variable."""
    return _parse_budget(os.environ.get("NILHARM_BUDGET", ""))


def require_budget(total, what, *args):
    """Return total, or raise BudgetError when it exceeds NILHARM_BUDGET.

    Callers size an allocation first and pass the estimate with a
    description, what.format(*args), so oversize requests fail before
    allocating; the description is formatted only for the error."""
    budget = node_budget()
    if total > budget:
        raise BudgetError(f"{what.format(*args)} exceed NILHARM_BUDGET={budget}")
    return total


def is_count(k, low=1):
    """True when k is a Python or numpy integer, not a bool, and at
    least low: the size check of the quadrature and of phi_orbit."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= low


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

def _mul(a, b, conj=False):
    """a * b, or conj(a) * b, on planes (1, ...) or (2, ...): a complex
    product as four real products and two real adds, where numpy's
    complex multiply fuses them on some paths (a one-element array) and
    not on others."""
    if len(a) == 1:
        return a * b
    rr = a[0] * b[0]
    out = np.empty((2,) + rr.shape)
    (np.add if conj else np.subtract)(rr, a[1] * b[1], out=out[0])
    (np.subtract if conj else np.add)(a[0] * b[1], a[1] * b[0], out=out[1])
    return out


def _fold(parts):
    """parts[0] + parts[1] + ..., added left to right."""
    return functools.reduce(operator.add, parts)


def _orthonormalize(z, scale=1.0):
    """The planes q[p, c, r] of the Q factors with positive real diagonal
    R of the stack z[:, p, r, c] times scale: Haar distributed (Mezzadri,
    arXiv:math-ph/0609050).  Classical Gram-Schmidt, twice per column:
    the second pass restores orthogonality to rounding however close the
    columns are (Giraud, Langou and Rozloznik, 2005).  z may have fewer
    columns than rows."""
    t = np.transpose(z, (1, 3, 2, 0))
    q = np.multiply(t, scale, out=np.empty(t.shape))
    rows = q.shape[2]
    for j in range(q.shape[1]):
        v, prev = q[:, j], q[:, :j]
        for _ in range(2 if j else 0):
            # v - sum_k <prev_k, v> prev_k, <prev_k, v> = sum_r conj(prev_kr) v_r
            w = _mul(prev, v[:, None], conj=True)
            w = _mul(prev, _fold(w[:, :, r] for r in range(rows))[:, :, None])
            v = v - _fold(w[:, k] for k in range(j))
        # complex v times 1 / |v|, which is how numpy divides a complex by a real
        norm = np.sqrt(_fold(_fold(v * v)))
        q[:, j] = v / norm if len(v) == 1 else v * (1 / norm)
    return q


def _matrices(q):
    """The real or complex (S, n, n) stack of the planes q."""
    m = np.ascontiguousarray(np.transpose(q, (3, 2, 1, 0)))
    return m[..., 0] if len(q) == 1 else m.view(complex)[..., 0]


def _qr_haar(z):
    """The Q factors of a (..., n, c) stack of real or complex matrices,
    c <= n."""
    flat = z.reshape((-1,) + z.shape[-2:])
    parts = np.stack([flat.real, flat.imag], axis=1) if np.iscomplexobj(z) else flat[:, None]
    return _matrices(_orthonormalize(parts)).reshape(z.shape)


def _cofactors(q):
    """The planes c[p, r] of the cofactors C_r = (-1)^(r+n-1) det(q minus
    row r) of the n - 1 columns in the planes q, n <= 4: every n x n
    matrix A with these first columns has det A = sum_r C_r A[r, n-1].
    The cross product for n = 3; for n = 4, the 2x2 minors of the
    first two columns times the third."""
    parts, _, n, size = q.shape
    if n == 1:
        c = np.zeros((parts, 1, size))
        c[0] = 1.0
        return c
    if n == 2:
        return np.stack([-q[:, 0, 1], q[:, 0, 0]], axis=1)

    def minor(i, j):
        return _mul(q[:, 0, i], q[:, 1, j]) - _mul(q[:, 0, j], q[:, 1, i])

    if n == 3:
        return np.stack([minor(1, 2), minor(2, 0), minor(0, 1)], axis=1)
    m = {(i, j): minor(i, j) for i in range(4) for j in range(i + 1, 4)}
    u = q[:, 2]

    def term(i, j, r):
        return _mul(m[i, j], u[:, r])

    return np.stack([term(1, 3, 2) - term(1, 2, 3) - term(2, 3, 1),
                     term(0, 2, 3) - term(0, 3, 2) + term(2, 3, 0),
                     term(0, 3, 1) - term(0, 1, 3) - term(1, 3, 0),
                     term(0, 1, 2) - term(0, 2, 1) + term(1, 2, 0)], axis=1)


def _check_size(size):
    if not is_count(size):
        raise ValueError(f"a Haar sample needs an integer size >= 1, got {size!r}")


def _special(n, rng, size, parts):
    """Haar samples of SO(n) (one part) or SU(n) (two), which carry their
    determinant on the last column.  For n <= 4 the first n - 1 columns
    are the Q factor of an (S, parts, n, n - 1) Gaussian array and the
    last is the conjugate cofactor vector C* of those columns; for a
    unitary U with these first columns, C* = conj(det U) U[:, n-1].  For
    n >= 5 the Q factor of an (S, parts, n, n) array has its last column
    times conj(det), by np.linalg.det.  Either way the sample is
    U diag(1, ..., 1, conj(det U)) for U Haar on O(n) or U(n), a map that
    commutes with left multiplication by SO(n) or SU(n), so it pushes
    Haar measure to Haar measure."""
    _check_size(size)
    scale = 1.0 if parts == 1 else 1 / np.sqrt(2.0)
    if n <= 4:
        q = _orthonormalize(rng.standard_normal((size, parts, n, n - 1)), scale)
        c = _cofactors(q)
        if parts == 2:
            np.negative(c[1], out=c[1])
        return _matrices(np.concatenate([q, c[:, None]], axis=1))
    q = _orthonormalize(rng.standard_normal((size, parts, n, n)), scale)
    d = np.linalg.det(_matrices(q))
    if parts == 1:
        # |det| = 1, so conj(det) is its sign
        np.negative(q[:, -1], out=q[:, -1], where=d < 0)
    else:
        q[:, -1] = _mul(np.stack([d.real, d.imag])[:, None], q[:, -1], conj=True)
    return _matrices(q)


def haar_special_orthogonal(n, rng, size):
    return _special(n, rng, size, 1)


def haar_unitary(n, rng, size):
    _check_size(size)
    # the Gaussians' real and then imaginary parts, over sqrt(2)
    return _matrices(_orthonormalize(rng.standard_normal((size, 2, n, n)), 1 / np.sqrt(2.0)))


def haar_special_unitary(n, rng, size):
    return _special(n, rng, size, 2)


def haar_symplectic_quat(n, rng, size):
    """Haar samples of Sp(n), a (size, n, n, 4) stack of quaternionic
    unitary matrices.

    Quaternionic Ginibre followed by quaternionic modified Gram-Schmidt,
    run on all samples at once; the diagonal "R" entries are positive
    reals, which fixes the phase ambiguity exactly as in the complex QR
    construction.
    """
    _check_size(size)
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
        if not (is_count(self.nodes) and is_count(self.dim) and 0 < self.half_width < math.inf):
            raise ValueError(f"the {self.rule} rule needs integer nodes, dim >= 1 and finite half_width > 0: {self}")

    @staticmethod
    def cube(nodes, half_width, dim):
        return QuadratureSpec(nodes=nodes, half_width=float(half_width), dim=dim)

    def check_budget(self):
        """Total tensor nodes, or BudgetError when they exceed
        NILHARM_BUDGET."""
        total = self.nodes ** self.dim
        return require_budget(total, "{}^{} = {} nodes", self.nodes, self.dim, total)

    def grid(self):
        """Return (points, weights): (P, dim) nodes, column-major so that
        each coordinate column points[:, k] is contiguous, and (P,) weights."""
        total = self.check_budget()
        x, w1 = leggauss(self.nodes)
        mesh = np.meshgrid(*(x * self.half_width,) * self.dim, indexing="ij")
        points = np.stack([m.ravel() for m in mesh]).T
        wmesh = np.meshgrid(*(w1 * self.half_width,) * self.dim, indexing="ij")
        weights = np.ones(total)
        for w in wmesh:
            weights = weights * w.ravel()
        return points, weights
