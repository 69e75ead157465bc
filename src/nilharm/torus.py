"""Maximal tori, root systems and the Weyl-chamber chart.

Each simple factor carries an explicit matrix model (su(n): traceless
anti-Hermitian; so(2m): real skew; sp(n): 2n x 2n complex with the
quaternionic block structure).  A Cartan element is parametrized by its
angle vector theta, and the chart g'_r ~ G'/T x C has Jacobian modulus

    theta(H) = | prod_{alpha in Delta} alpha(H) |

over the full root set Delta (both signs).  Chamber conventions:
su(n): theta_1 >= ... >= theta_n (sum zero); so(2m): theta_1 >= ... >=
theta_{m-1} >= |theta_m|; sp(n): theta_1 >= ... >= theta_n >= 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


def sp_basis(n):
    """Orthonormal basis of sp(n) as 2n x 2n complex matrices."""
    return [quat.qmat_to_complex(b) for b in sp_basis_quat(n)]


class Factor:
    """Common interface: kind, n, rank, roots (int matrix over angles)."""

    kind: str
    n: int
    rank: int
    dim: int

    def conjugate(self, g, h):
        return g @ h @ np.conj(g).T

    def theta(self, angles):
        vals = self.roots @ np.asarray(angles, dtype=float)
        return float(np.abs(np.prod(vals))) if len(vals) else 1.0

    def is_regular(self, angles):
        if not len(self.roots):
            return True
        vals = self.roots @ np.asarray(angles, dtype=float)
        scale = max(1.0, float(np.max(np.abs(angles))))
        return bool(np.min(np.abs(vals)) > _REG_TOL * scale)


class SUFactor(Factor):
    kind = "su"

    def __init__(self, n):
        if n < 2:
            raise ValueError("su(n) needs n >= 2")
        self.n = n
        self.rank = n - 1
        self.dim = n * n - 1
        self.angle_len = n
        roots = []
        for j in range(n):
            for k in range(n):
                if j != k:
                    r = np.zeros(n, dtype=int)
                    r[j], r[k] = 1, -1
                    roots.append(r)
        self.roots = np.array(roots)

    def h_matrix(self, angles):
        angles = np.asarray(angles, dtype=float)
        if abs(angles.sum()) > 1e-10 * max(1.0, np.abs(angles).max()):
            raise ValueError("su(n) angles must sum to zero")
        return 1j * np.diag(angles).astype(complex)

    def angles_of(self, h):
        return np.diagonal(h).imag.copy()

    def basis(self):
        return su_basis(self.n)

    def random_element(self, rng):
        z = rng.standard_normal((self.n, self.n)) + 1j * rng.standard_normal((self.n, self.n))
        x = (z - np.conj(z).T) / 2.0
        x -= np.trace(x) / self.n * np.eye(self.n)
        return x

    def to_chamber(self, x):
        mu, u = np.linalg.eigh(1j * np.asarray(x, dtype=complex))
        theta = -mu  # ascending mu gives descending theta
        det = np.linalg.det(u)
        u = u.copy()
        u[:, 0] = u[:, 0] / det
        return u, theta


class SOFactor(Factor):
    kind = "so"

    def __init__(self, n):
        if n < 2 or n % 2:
            raise ValueError("so factor implemented for even n >= 2")
        self.n = n
        self.rank = n // 2
        self.dim = n * (n - 1) // 2
        self.angle_len = self.rank
        roots = []
        for a in range(self.rank):
            for b in range(a + 1, self.rank):
                for sa in (1, -1):
                    for sb in (1, -1):
                        r = np.zeros(self.rank, dtype=int)
                        r[a], r[b] = sa, sb
                        roots.append(r)
        self.roots = np.array(roots) if roots else np.zeros((0, self.rank), dtype=int)

    def h_matrix(self, angles):
        h = np.zeros((self.n, self.n))
        for l, t in enumerate(np.asarray(angles, dtype=float)):
            h[2 * l, 2 * l + 1] = -t
            h[2 * l + 1, 2 * l] = t
        return h

    def angles_of(self, h):
        return np.array([h[2 * l + 1, 2 * l] for l in range(self.rank)])

    def basis(self):
        return so_basis(self.n)

    def random_element(self, rng):
        a = rng.standard_normal((self.n, self.n))
        return (a - a.T) / 2.0

    def to_chamber(self, x):
        """(q, theta) with q in SO(n) and q^T x q = h_matrix(theta),
        theta in the closed chamber.

        iX is Hermitian with spectrum +-mu.  An eigenvector u with mu > 0
        is orthogonal to conj(u) (eigenvalue -mu), so sqrt(2) Re u,
        sqrt(2) Im u are orthonormal, and X maps the first to mu times
        the second: the pair spans a block of angle mu.  The top half of
        the spectrum, taken in descending order, gives the blocks sorted;
        eigenvalues below 1e-12 max|mu| count as zero, and their blocks
        take a real orthonormal basis of the remaining complement.
        """
        mu, u = np.linalg.eigh(1j * np.asarray(x, dtype=float))
        mu, u = mu[self.rank:][::-1], u[:, self.rank:][:, ::-1]
        live = mu > 1e-12 * abs(mu[0])
        theta = np.where(live, mu, 0.0)
        q = np.sqrt(2.0) * np.stack([u.real, u.imag], axis=-1)[:, live].reshape(self.n, -1)
        if q.shape[1] < self.n:
            left = np.linalg.svd(np.eye(self.n) - q @ q.T)[0]
            q = np.concatenate([q, left[:, : self.n - q.shape[1]]], axis=1)
        # swapping the last pair of columns flips the determinant and
        # the sign of the last angle
        if np.linalg.det(q) < 0:
            l = self.rank - 1
            q[:, [2 * l, 2 * l + 1]] = q[:, [2 * l + 1, 2 * l]]
            theta[l] = -theta[l]
        return q, theta

    def conjugate(self, g, h):
        return g @ h @ g.T


class SpFactor(Factor):
    kind = "sp"

    def __init__(self, n):
        if n < 1:
            raise ValueError("sp(n) needs n >= 1")
        self.n = n
        self.rank = n
        self.dim = n * (2 * n + 1)
        self.angle_len = n
        roots = []
        for a in range(n):
            r = np.zeros(n, dtype=int)
            r[a] = 2
            roots.append(r.copy())
            roots.append(-r)
        for a in range(n):
            for b in range(a + 1, n):
                for sa in (1, -1):
                    for sb in (1, -1):
                        r = np.zeros(n, dtype=int)
                        r[a], r[b] = sa, sb
                        roots.append(r)
        self.roots = np.array(roots)

    def h_matrix(self, angles):
        angles = np.asarray(angles, dtype=float)
        return np.diag(np.concatenate([1j * angles, -1j * angles])).astype(complex)

    def angles_of(self, h):
        return np.diagonal(h).imag[: self.n].copy()

    def basis(self):
        return sp_basis(self.n)

    def random_element(self, rng):
        coeffs = rng.standard_normal(self.dim)
        return sum(c * b for c, b in zip(coeffs, self.basis()))

    def to_chamber(self, x):
        n = self.n
        mu, u = np.linalg.eigh(1j * np.asarray(x, dtype=complex))
        # eigenvalue -theta of iX corresponds to X v = i theta v
        idx = np.argsort(mu)[:n]
        theta = -mu[idx]
        v = u[:, idx]
        jbar = np.concatenate([-np.conj(v[n:, :]), np.conj(v[:n, :])], axis=0)
        g = np.concatenate([v, jbar], axis=1)
        return g, theta


@dataclass(frozen=True)
class ChamberPoint:
    """Angles per factor, with a regularity flag (no vanishing root)."""

    angles: tuple
    regular: bool

    @property
    def flat(self):
        if not self.angles:
            return np.zeros(0)
        return np.concatenate([np.asarray(a, dtype=float) for a in self.angles])


@dataclass(frozen=True)
class RootSystem:
    """Product of simple factors plus an abelian center of dim n_abelian."""

    factors: tuple
    n_abelian: int = 0

    @property
    def rank(self):
        return sum(f.rank for f in self.factors)

    @property
    def num_roots(self):
        return sum(len(f.roots) for f in self.factors)

    @property
    def dim(self):
        return sum(f.dim for f in self.factors) + self.n_abelian

    def split_angles(self, h):
        """Accept a flat angle vector or a per-factor tuple; return tuple."""
        if isinstance(h, (tuple, list)) and len(h) == len(self.factors) and not np.isscalar(h[0]):
            return tuple(np.atleast_1d(np.asarray(a, dtype=float)) for a in h)
        h = np.atleast_1d(np.asarray(h, dtype=float))
        out = []
        pos = 0
        for f in self.factors:
            out.append(h[pos: pos + f.angle_len])
            pos += f.angle_len
        if pos != h.size:
            raise ValueError(f"angle vector has length {h.size}, expected {pos}")
        return tuple(out)


_TERM_RE = re.compile(r"^(su|so|sp|u|c)(?:\((\d+)\))?$")


def root_system(spec):
    """Build a RootSystem from a spec like "su(3)", "so(4)",
    "su(2)+su(2)", "sp(2)" or "su(3)+su(2)+c"."""
    factors = []
    n_abelian = 0
    for term in str(spec).replace(" ", "").split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"unrecognized factor {term!r} in {spec!r}")
        kind, arg = m.group(1), m.group(2)
        if kind == "c":
            n_abelian += 1
            continue
        if kind == "u":
            if arg != "1":
                raise ValueError("only u(1) abelian factors are supported")
            n_abelian += 1
            continue
        n = int(arg)
        if kind == "su":
            factors.append(SUFactor(n))
        elif kind == "so":
            factors.append(SOFactor(n))
        else:
            factors.append(SpFactor(n))
    return RootSystem(factors=tuple(factors), n_abelian=n_abelian)


def theta(rs, h):
    """|prod of all roots at the Cartan element with the given angles|.

    h is a flat angle vector (factor blocks concatenated) or a tuple of
    per-factor angle arrays.  Abelian directions contribute nothing.
    """
    parts = rs.split_angles(h)
    out = 1.0
    for f, a in zip(rs.factors, parts):
        out *= f.theta(a)
    return out


def to_chamber(rs, x):
    """Conjugate x into the closed fundamental chamber.

    x is a factor matrix (single factor) or list of factor matrices.
    Returns (gs, ChamberPoint) with Ad(gs) H = x blockwise.
    """
    xs = x if isinstance(x, (list, tuple)) else [x]
    if len(xs) != len(rs.factors):
        raise ValueError(f"expected {len(rs.factors)} factor matrices, got {len(xs)}")
    gs, angs, regular = [], [], True
    for f, xm in zip(rs.factors, xs):
        g, a = f.to_chamber(xm)
        gs.append(g)
        angs.append(a)
        regular = regular and f.is_regular(a)
    return gs, ChamberPoint(angles=tuple(angs), regular=regular)


def chamber_matrices(rs, point_or_angles):
    """Cartan matrices for a ChamberPoint or raw angles."""
    angles = point_or_angles.angles if isinstance(point_or_angles, ChamberPoint) else None
    parts = angles if angles is not None else rs.split_angles(point_or_angles)
    return [f.h_matrix(a) for f, a in zip(rs.factors, parts)]


def reconstruct(rs, gs, point):
    """Ad(gs) applied to the chamber point, factor by factor."""
    hs = chamber_matrices(rs, point)
    return [f.conjugate(g, h) for f, g, h in zip(rs.factors, gs, hs)]
