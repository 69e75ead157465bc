"""Maximal tori, root systems and the Weyl-chamber chart.

Each simple factor carries an explicit matrix model (su(n): traceless
anti-Hermitian; so(2m): real skew; sp(n): 2n x 2n complex with the
quaternionic block structure).  A Cartan element is parametrized by its
angle vector theta, and the chart g'_r ~ G'/T x C has Jacobian modulus

    theta(H) = | prod_{alpha in Delta} alpha(H) |

over the full root set Delta (both signs): e_j - e_k for su(n), the
pairs +-e_a +- e_b for so(2m), and +-2e_a ahead of the same pairs for
sp(n), one int table per factor, which the Weyl dimensions of the
K_x-types (Factor.weyl_dim) also read.  Chamber conventions:
su(n): theta_1 >= ... >= theta_n (sum zero); so(2m): theta_1 >= ... >=
theta_{m-1} >= |theta_m|; sp(n): theta_1 >= ... >= theta_n >= 0.

Angles have one format: a tuple with one 1-d array per factor of the
root system, in factor order, each of the factor's angle_len (n for
su(n) and sp(n), m for so(2m)).  theta and chamber_matrices reject any
other shape with a ValueError.

The chart to_chamber returns the angles alone, since theta and the
Pfaffian weights depend only on the Cartan part of x: for su(n) and
sp(n) they are the spectrum of iX (eigvalsh), and so(2m) reads its
eigenvectors only for the orientation that signs its last angle.  The
conjugating element g with x = Ad(g) H is never formed; the tests build
it as an independent oracle (tests/_oracles.py).  Regularity is judged
against the norm of the whole functional, so a g' part that is rounding
next to a central part is singular.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import prod

import numpy as np

from . import quat

_REG_TOL = 1e-9


def _gram_diag_vectors(n):
    """Orthonormal basis of the traceless diagonal, as real n-vectors."""
    vecs = []
    for l in range(1, n):
        v = np.zeros(n)
        v[:l] = 1.0
        v[l] = -float(l)
        vecs.append(v / np.linalg.norm(v))
    return vecs


def su_basis(n):
    """Orthonormal basis of su(n) under <A,B> = Re tr(A B^H)."""
    out = []
    for j in range(n):
        for k in range(j + 1, n):
            a = np.zeros((n, n), dtype=complex)
            a[j, k] = 1.0
            a[k, j] = -1.0
            out.append(a / np.sqrt(2.0))
            b = np.zeros((n, n), dtype=complex)
            b[j, k] = 1j
            b[k, j] = 1j
            out.append(b / np.sqrt(2.0))
    for v in _gram_diag_vectors(n):
        out.append(1j * np.diag(v))
    return out


def so_basis(n):
    """Orthonormal basis of so(n) under <A,B> = tr(A B^T)."""
    out = []
    for j in range(n):
        for k in range(j + 1, n):
            a = np.zeros((n, n))
            a[j, k] = -1.0
            a[k, j] = 1.0
            out.append(a / np.sqrt(2.0))
    return out


def sp_basis_quat(n):
    """Orthonormal basis of sp(n) in the quaternionic model."""
    out = []
    for l in range(n):
        for u in (quat.I, quat.J, quat.K):
            m = np.zeros((n, n, 4))
            m[l, l] = u
            out.append(m)
    for l in range(n):
        for m_ in range(l + 1, n):
            for u in (quat.ONE, quat.I, quat.J, quat.K):
                m = np.zeros((n, n, 4))
                m[l, m_] = u
                m[m_, l] = -quat.qconj(u)
                out.append(m / np.sqrt(2.0))
    return out


def _pair_roots(m):
    """The roots +-e_a +- e_b (a < b) over m angles, signs (+,+), (+,-),
    (-,+), (-,-) per pair: all of so(2m), the short roots of sp(m)."""
    eye = np.eye(m, dtype=int)
    rows = [sa * eye[a] + sb * eye[b] for a in range(m) for b in range(a + 1, m)
            for sa in (1, -1) for sb in (1, -1)]
    return np.array(rows, dtype=int).reshape(-1, m)


class Factor:
    """Common interface: kind, n, rank, roots (int matrix over angles)."""

    kind: str
    n: int
    rank: int
    dim: int

    def theta(self, angles):
        vals = self.roots @ np.asarray(angles, dtype=float)
        return float(np.abs(np.prod(vals))) if len(vals) else 1.0

    def is_regular(self, angles, norm=0.0):
        """No root vanishes, relative to the larger of the largest angle
        and norm, the norm of the functional the angles chart: both scale
        with it, so the answer does not."""
        if not len(self.roots):
            return True
        angles = np.asarray(angles, dtype=float)
        return bool(abs(self.roots @ angles).min() > _REG_TOL * max(norm, float(abs(angles).max())))

    def weyl_dim(self, hw):
        """Weyl dimension of the module with highest weight the partition
        hw (0 past angle_len parts): prod <hw + rho, a> / <rho, a> over the
        positive roots a, the rows whose first nonzero entry is positive,
        in exact integers over 2 rho."""
        hw = [int(a) for a in hw]
        if any(a < b for a, b in zip(hw, hw[1:] + [0])):
            raise ValueError(f"hw must be a partition, got {tuple(hw)}")
        if sum(map(bool, hw)) > self.angle_len:
            return 0
        pos = self.roots[[r[np.flatnonzero(r)[0]] > 0 for r in self.roots]]
        two_rho = pos.sum(axis=0)
        shifted = 2 * np.array((hw + [0] * self.angle_len)[: self.angle_len]) + two_rho
        return prod(int(v) for v in pos @ shifted) // prod(int(v) for v in pos @ two_rho)


class SUFactor(Factor):
    kind = "su"

    def __init__(self, n):
        if n < 2:
            raise ValueError("su(n) needs n >= 2")
        self.n = n
        self.rank = n - 1
        self.dim = n * n - 1
        self.angle_len = n
        eye = np.eye(n, dtype=int)
        self.roots = np.array([eye[j] - eye[k] for j in range(n) for k in range(n) if j != k])

    def h_matrix(self, angles):
        angles = np.asarray(angles, dtype=float)
        if abs(angles.sum()) > 1e-10 * max(1.0, np.abs(angles).max()):
            raise ValueError("su(n) angles must sum to zero")
        return 1j * np.diag(angles).astype(complex)

    def to_chamber(self, x):
        """Dominant angles of x: X v = i theta v, so theta is minus the
        spectrum of iX, descending as that spectrum ascends."""
        return 0.0 - np.linalg.eigvalsh(1j * np.asarray(x, dtype=complex))


class SOFactor(Factor):
    kind = "so"

    def __init__(self, n):
        if n < 2 or n % 2:
            raise ValueError("so factor implemented for even n >= 2")
        self.n = n
        self.rank = n // 2
        self.dim = n * (n - 1) // 2
        self.angle_len = self.rank
        self.roots = _pair_roots(self.rank)

    def h_matrix(self, angles):
        h = np.zeros((self.n, self.n))
        for l, t in enumerate(np.asarray(angles, dtype=float)):
            h[2 * l, 2 * l + 1] = -t
            h[2 * l + 1, 2 * l] = t
        return h

    def to_chamber(self, x):
        """Dominant angles of x, theta_1 >= ... >= |theta_m|.

        iX is Hermitian with spectrum +-mu, and the top half, descending,
        gives the moduli; eigenvalues below 1e-12 max|mu| count as zero.
        An eigenvector u with mu > 0 is orthogonal to conj(u), and X maps
        sqrt(2) Re u to mu sqrt(2) Im u, so these pairs form a rotation
        basis q with q^T x q = h_matrix(mu).  When no angle vanishes the
        sign of the last one is the orientation of q: swapping one pair
        flips both.
        """
        mu, u = np.linalg.eigh(1j * np.asarray(x, dtype=float))
        mu, u = mu[self.rank:][::-1], u[:, self.rank:][:, ::-1]
        live = mu > 1e-12 * abs(mu[0])
        theta = np.where(live, mu, 0.0)
        if live.all() and np.linalg.det(np.stack([u.real, u.imag], axis=-1).reshape(self.n, self.n)) < 0:
            theta[-1] = -theta[-1]
        return theta


class SpFactor(Factor):
    kind = "sp"

    def __init__(self, n):
        if n < 1:
            raise ValueError("sp(n) needs n >= 1")
        self.n = n
        self.rank = n
        self.dim = n * (2 * n + 1)
        self.angle_len = n
        long = 2 * np.eye(n, dtype=int)
        self.roots = np.concatenate([np.stack([long, -long], axis=1).reshape(-1, n), _pair_roots(n)])

    def h_matrix(self, angles):
        angles = np.asarray(angles, dtype=float)
        return np.diag(np.concatenate([1j * angles, -1j * angles])).astype(complex)

    def to_chamber(self, x):
        """Dominant angles of x: the spectrum of iX is -theta, +theta,
        and its lower half, ascending, gives theta descending."""
        return 0.0 - np.linalg.eigvalsh(1j * np.asarray(x, dtype=complex))[: self.n]


@dataclass(frozen=True)
class ChamberPoint:
    """Angles per factor, with a regularity flag (no vanishing root)."""

    angles: tuple
    regular: bool


@dataclass(frozen=True)
class RootSystem:
    """Product of simple factors."""

    factors: tuple

    @property
    def rank(self):
        return sum(f.rank for f in self.factors)


_TERM_RE = re.compile(r"^(su|so|sp)\((\d+)\)$")
_FACTORS = {"su": SUFactor, "so": SOFactor, "sp": SpFactor}


def root_system(spec):
    """Build a RootSystem from a spec like "su(3)", "so(4)", "sp(2)" or
    "su(3)+su(2)"."""
    factors = []
    for term in str(spec).replace(" ", "").split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"unrecognized factor {term!r} in {spec!r}")
        factors.append(_FACTORS[m.group(1)](int(m.group(2))))
    return RootSystem(factors=tuple(factors))


def _angle_groups(rs, angles):
    """The per-factor angle arrays of rs, checked: a tuple or list with
    one group per factor, each of the factor's angle_len."""
    if not isinstance(angles, (tuple, list)) or len(angles) != len(rs.factors):
        names = "+".join(f"{f.kind}({f.n})" for f in rs.factors) or "an empty root system"
        got = len(angles) if isinstance(angles, (tuple, list)) else type(angles).__name__
        raise ValueError(f"expected {len(rs.factors)} angle group(s), one per factor of {names}, got {got}")
    groups = tuple(np.asarray(a, dtype=float) for a in angles)
    for f, a in zip(rs.factors, groups):
        if a.shape != (f.angle_len,):
            raise ValueError(f"{f.kind}({f.n}) takes {f.angle_len} angles, got {a.size}")
    return groups


def theta(rs, angles):
    """|prod of all roots at the Cartan element with the given
    per-factor angles|; 1 when rs has no factors."""
    out = 1.0
    for f, a in zip(rs.factors, _angle_groups(rs, angles)):
        out *= f.theta(a)
    return out


def to_chamber(rs, x, norm=0.0):
    """The ChamberPoint of x: the dominant angles H with x = Ad(g) H
    blockwise for some g, which is not formed.

    x is a factor matrix (single factor) or list of factor matrices;
    norm is that of the functional whose g' part x is (Factor.is_regular).
    """
    xs = x if isinstance(x, (list, tuple)) else [x]
    if len(xs) != len(rs.factors):
        raise ValueError(f"expected {len(rs.factors)} factor matrices, got {len(xs)}")
    angs = tuple(f.to_chamber(xm) for f, xm in zip(rs.factors, xs))
    return ChamberPoint(angles=angs, regular=all(f.is_regular(a, norm) for f, a in zip(rs.factors, angs)))


def chamber_matrices(rs, angles):
    """Cartan matrices of the per-factor angles."""
    return [f.h_matrix(a) for f, a in zip(rs.factors, _angle_groups(rs, angles))]
