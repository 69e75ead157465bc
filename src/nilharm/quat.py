"""Quaternion arrays and quaternionic linear algebra.

Quaternions are stored as float arrays whose last axis has length 4 and
holds the components (1, i, j, k).  Vectors over the quaternions are
arrays of shape (..., n, 4); matrices are (m, n, 4) and act on column
vectors from the left.  Imaginary quaternions double as elements of
su(2) under the identification

    i <-> [[1j, 0], [0, -1j]],   j <-> [[0, 1], [-1, 0]],   k <-> [[0, 1j], [1j, 0]],

which matches brackets ([i, j] = 2k and cyclic) on both sides.
"""

from __future__ import annotations

import numpy as np

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])


def qmul(a, b):
    """Quaternion product with numpy broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def qconj(a):
    a = np.asarray(a, dtype=float)
    out = a.copy()
    out[..., 1:] *= -1.0
    return out


def qnorm(a):
    """|a| over the last axis, sqrt(((a0^2 + a1^2) + a2^2) + a3^2) in
    elementwise ufuncs, without the per-call cost of a reduction."""
    s = np.square(np.asarray(a, dtype=float))
    return np.sqrt(((s[..., 0] + s[..., 1]) + s[..., 2]) + s[..., 3])


# _LEFT_BASIS[c] and _RIGHT_BASIS[c] are the matrices of x -> e_c x and
# x -> x e_c for the basis quaternions e_c = (1, i, j, k)
_EYE4 = np.eye(4)
_LEFT_BASIS = np.swapaxes(qmul(_EYE4[:, None], _EYE4[None, :]), 1, 2)
_RIGHT_BASIS = np.swapaxes(qmul(_EYE4[None, :], _EYE4[:, None]), 1, 2)


def _basis_combination(q, basis):
    """sum_c q[..., c] basis[c], shape (..., 4, 4): the contraction
    np.tensordot(q, basis, axes=1) makes, as one matmul."""
    q = np.asarray(q, dtype=float)
    return (q.reshape(-1, 4) @ basis.reshape(4, 16)).reshape(q.shape[:-1] + (4, 4))


def left_mult_matrix(q):
    """4x4 real matrix of x -> q*x (leading axes broadcast)."""
    return _basis_combination(q, _LEFT_BASIS)


def right_mult_matrix(q):
    """4x4 real matrix of x -> x*q (leading axes broadcast)."""
    return _basis_combination(q, _RIGHT_BASIS)


def rotation_matrix(g):
    """3x3 matrix of Ad(g): q -> g q g^-1 on imaginary quaternions, |g| = 1."""
    g = np.asarray(g, dtype=float)
    w, x, y, z = g[..., 0], g[..., 1], g[..., 2], g[..., 3]
    rows = [
        np.stack([w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z], axis=-1),
    ]
    return np.stack(rows, axis=-2)


def random_unit(rng, size):
    """A (size, 4) stack of Haar-uniform unit quaternions (uniform on
    S^3)."""
    g = rng.standard_normal((size, 4))
    return g / qnorm(g)[..., None]


def to_su2(g):
    """Unit quaternion -> SU(2) matrix under the module identification."""
    g = np.asarray(g, dtype=float)
    w, x, y, z = g[..., 0], g[..., 1], g[..., 2], g[..., 3]
    rows = [
        np.stack([w + 1j * x, y + 1j * z], axis=-1),
        np.stack([-y + 1j * z, w - 1j * x], axis=-1),
    ]
    return np.stack(rows, axis=-2)


def qmat_to_complex(m):
    """Quaternionic (p, n, 4) matrix -> complex (2p, 2n) matrix.

    Uses q = z1 + z2 j and the column convention v ~ (a, conj(b)) for
    v = a + b j, under which quaternionic unitaries become complex
    unitaries commuting with the antilinear map (a, c) -> (-conj(c), conj(a)).
    """
    m = np.asarray(m, dtype=float)
    A = m[..., 0] + 1j * m[..., 1]
    B = m[..., 2] + 1j * m[..., 3]
    top = np.concatenate([A, -B], axis=-1)
    bottom = np.concatenate([np.conj(B), np.conj(A)], axis=-1)
    return np.concatenate([top, bottom], axis=-2)
