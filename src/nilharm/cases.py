"""Concrete models for the classified pairs (g, V).

Each case bundles an orthonormal basis of g = g' + c (center last), the
stack of skew matrices pi(X_i) on V, the block structure of V, the
factor bases of its Cartan bridge and a Haar sampler for G' that
returns the stack of V-matrices pi(g), shape (size, dim_v, dim_v).
That stack is the only representation of G': the adjoint action follows
from it (LauretAlgebra.ad_of), as do the orbit integrals and the G'
part of K.

Conventions fixed here and relied on elsewhere:

* su(2) is identified with the imaginary quaternions via
  i <-> diag(1j, -1j), j <-> [[0, 1], [-1, 0]], k <-> [[0, 1j], [1j, 0]].
* Complex blocks C^m sit inside R^(2m) with interleaved coordinates
  (Re z_1, Im z_1, Re z_2, ...); quaternionic blocks use (1, i, j, k)
  components per coordinate.
* Wherever V is complex, pi(h) of a chamber element
  h = LauretAlgebra.from_chamber(angles, zc) multiplies complex
  coordinate a by 1j mu_a, so the weights are read off pi alone
  (LauretAlgebra.weight_matrix); no case states them.
* factor_bases holds one stack per factor of the root system, in the
  order of root_spec: the torus-module matrices of the g' basis vectors
  that the factor spans, in coordinate order, so the stacks together
  cover g' once.  CaseOps.to_factor_mats and from_factor_mats read only
  these stacks.
* The inner product on the center is normalized so that the generator
  acting as multiplication by 1j on its block has norm one.  This makes
  central characters integral (zeta(t Z0) = 1j t) and removes stray
  sqrt(dim) factors from the densities and spherical functions.
* CASES holds the parameter contract of every family (names, defaults,
  ranges) and case_params is its one check: every entry point that
  takes a (case, params) pair calls it before it builds anything.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import quat, torus
from .numerics import (
    haar_special_orthogonal,
    haar_special_unitary,
    haar_symplectic_quat,
    is_count,
    require_budget,
)

E1 = np.array([[1j, 0], [0, -1j]])
E2 = np.array([[0, 1], [-1, 0]], dtype=complex)
E3 = np.array([[0, 1j], [1j, 0]])
SU2_MATS = np.stack([E1, E2, E3])
SU2_QUATS = (quat.I, quat.J, quat.K)


def realify(a):
    """Complex (..., m, m) matrices as real (..., 2m, 2m) matrices on
    interleaved coordinates: four strided writes of the 2x2 blocks
    [[Re, -Im], [Im, Re]] into one (..., m, 2, m, 2) array."""
    a = np.asarray(a, dtype=complex)
    m = a.shape[-1]
    out = np.empty(a.shape[:-2] + (m, 2, m, 2))
    out[..., 0, :, 0] = out[..., 1, :, 1] = a.real
    np.negative(a.imag, out=out[..., 0, :, 1])
    out[..., 1, :, 0] = a.imag
    return out.reshape(a.shape[:-2] + (2 * m, 2 * m))


def cross_matrix(u):
    u1, u2, u3 = u
    return np.array([[0.0, -u3, u2], [u3, 0.0, -u1], [-u2, u1, 0.0]])


def _block_diag_stack(blocks):
    """Block-diagonal (S, d, d) stack from per-sample blocks
    (S, d_i, d_i); a single block is returned as it is."""
    if len(blocks) == 1:
        return blocks[0]
    size = blocks[0].shape[0]
    dim = sum(b.shape[-1] for b in blocks)
    out = np.zeros((size, dim, dim), dtype=np.result_type(*blocks))
    at = 0
    for b in blocks:
        d = b.shape[-1]
        out[:, at:at + d, at:at + d] = b
        at += d
    return out


def block_diag(*blocks):
    """Block-diagonal matrix from square 2-d blocks (0 x 0 blocks add
    nothing); a single block is returned as it is."""
    return _block_diag_stack([np.asarray(b)[None] for b in blocks])[0]


class CaseOps:
    """Shared plumbing; subclasses fill in the per-case data from the
    checked parameters of case_params."""

    label = "?"

    def _require_pi(self, dim_g):
        """Check the dim_g x dim_v^2 entries of pi against NILHARM_BUDGET."""
        dim_v = sum(dim for _, dim in self.v_blocks)
        require_budget(dim_g * dim_v**2, "{} x {}^2 entries of pi", dim_g, dim_v)

    # -- structure ---------------------------------------------------------
    @property
    def dim_g(self):
        return self.pi.shape[0]

    @property
    def dim_gp(self):
        return self.dim_g - self.dim_c

    @property
    def dim_v(self):
        return self.pi.shape[1]

    @property
    def has_weights(self):
        """Whether V is complex, so that LauretAlgebra.weight_matrix is
        defined: every case but II and VI with odd n."""
        return self.dim_v % 2 == 0

    # -- torus bridges -----------------------------------------------------
    root_spec = None
    factor_bases = ()
    _root_system = None

    def root_system(self):
        """The RootSystem of g', built from root_spec on first use and
        kept for the life of the model."""
        if self._root_system is None:
            self._root_system = (torus.RootSystem(factors=()) if self.root_spec is None
                                 else torus.root_system(self.root_spec))
        return self._root_system

    def to_factor_mats(self, xp):
        """One factor matrix per stack of factor_bases, from the
        g'-coordinates xp."""
        xp = np.asarray(xp, dtype=float)
        mats, at = [], 0
        for b in self.factor_bases:
            # the contraction np.tensordot(xp_b, b, axes=1) makes, without
            # its per-call overhead
            mats.append(np.dot(xp[at:at + len(b)], b.reshape(len(b), -1)).reshape(b.shape[1:]))
            at += len(b)
        return mats

    def from_factor_mats(self, mats):
        """g'-coordinates of factor matrices: the orthogonal projection
        Re<m, B_i> / <B_i, B_i> onto each stack, <A, B> = Re tr(A B^H)."""
        return np.concatenate([
            np.einsum("ab,iab->i", m, b.conj()).real / np.einsum("iab,iab->i", b, b.conj()).real
            for m, b in zip(mats, self.factor_bases)])

    def embed_angles(self, angles):
        """g'-coordinates of the Cartan element with the per-factor
        angles (see torus.chamber_matrices)."""
        if not self.factor_bases:
            raise NotImplementedError(f"case {self.label} has no Cartan bridge")
        return self.from_factor_mats(torus.chamber_matrices(self.root_system(), angles))

    # -- samplers ----------------------------------------------------------
    def sample_vmats(self, rng, size):
        """Haar sample of G' as the stack pi(g), shape (size, dim_v, dim_v);
        identities where G' is trivial."""
        return np.tile(np.eye(self.dim_v), (size, 1, 1))


class CaseI(CaseOps):
    """su(2) acting on H^n by left quaternion multiplication."""

    label = "I"
    root_spec = "su(2)"
    factor_bases = (SU2_MATS,)

    def __init__(self, params):
        self.n = n = params["n"]
        self.dim_c = 0
        self.v_blocks = [("(C^2)^n", 4 * n)]
        self._require_pi(3)
        self.pi = np.stack(
            [block_diag(*([quat.left_mult_matrix(q)] * n)) for q in SU2_QUATS]
        )

    def sample_vmats(self, rng, size):
        g = quat.random_unit(rng, size)
        return _block_diag_stack([quat.left_mult_matrix(g)] * self.n)


class CaseII(CaseOps):
    """su(2) on R^3 + H^n; never square integrable."""

    label = "II"
    root_spec = "su(2)"
    factor_bases = (SU2_MATS,)

    def __init__(self, params):
        self.n = n = params["n"]
        self.dim_c = 0
        self.v_blocks = [("R^3", 3), ("(C^2)^n", 4 * n)]
        self._require_pi(3)
        mats = []
        for u, q in zip(np.eye(3), SU2_QUATS):
            rot = 2.0 * cross_matrix(u)
            blocks = [rot] + [quat.left_mult_matrix(q)] * n
            mats.append(block_diag(*blocks))
        self.pi = np.stack(mats)

    def sample_vmats(self, rng, size):
        g = quat.random_unit(rng, size)
        return _block_diag_stack([quat.rotation_matrix(g)] + [quat.left_mult_matrix(g)] * self.n)


class CaseIII(CaseOps):
    """su(2)+su(2) on H^k1 + R^4 + H^k2 (R^4 carries the so(4) action)."""

    label = "III"
    root_spec = "su(2)+su(2)"
    factor_bases = (SU2_MATS, SU2_MATS)

    def __init__(self, params):
        self.k1, self.k2 = k1, k2 = params["k1"], params["k2"]
        self.dim_c = 0
        self.v_blocks = [("(C^2)^k1", 4 * k1), ("R^4", 4), ("(C^2)^k2", 4 * k2)]
        self._require_pi(6)
        mats = []
        for q in SU2_QUATS:
            blocks = [quat.left_mult_matrix(q)] * k1 + [quat.left_mult_matrix(q)] + [np.zeros((4, 4))] * k2
            mats.append(block_diag(*blocks))
        for q in SU2_QUATS:
            blocks = [np.zeros((4, 4))] * k1 + [-quat.right_mult_matrix(q)] + [quat.left_mult_matrix(q)] * k2
            mats.append(block_diag(*blocks))
        self.pi = np.stack(mats)

    def sample_vmats(self, rng, size):
        # each sample draws its g1 and g2 together, so blocks of samples
        # draw what one stack draws
        g = quat.random_unit(rng, 2 * size).reshape(size, 2, 4)
        g1, g2 = g[:, 0], g[:, 1]
        l1, l2 = quat.left_mult_matrix(g1), quat.left_mult_matrix(g2)
        # the middle R^4 = H carries x -> g1 x conj(g2)
        mid = l1 @ quat.right_mult_matrix(quat.qconj(g2))
        return _block_diag_stack([l1] * self.k1 + [mid] + [l2] * self.k2)


class CaseIV(CaseOps):
    """sp(2) acting componentwise on (H^2)^n."""

    label = "IV"
    root_spec = "sp(2)"

    def __init__(self, params):
        self.n = n = params["n"]
        self.dim_c = 0
        self.v_blocks = [("(C^4)^n", 8 * n)]
        self._require_pi(10)
        qbasis = torus.sp_basis_quat(2)
        self.factor_bases = (quat.qmat_to_complex(np.stack(qbasis)),)
        mats = []
        for b in qbasis:
            blk = np.block(
                [[quat.left_mult_matrix(b[a, c]) for c in range(2)] for a in range(2)]
            )
            mats.append(block_diag(*([blk] * n)))
        self.pi = np.stack(mats)

    def sample_vmats(self, rng, size):
        gs = haar_symplectic_quat(2, rng, size)
        # (S, 2, 2, 4, 4) quaternion entries -> (S, 8, 8) on H^2
        block = quat.left_mult_matrix(gs).swapaxes(2, 3).reshape(size, 8, 8)
        return _block_diag_stack([block] * self.n)


class CaseV(CaseOps):
    """su(n) acting on C^n, n >= 3."""

    label = "V"
    dim_c = 0

    def __init__(self, params):
        self.n = n = params["n"]
        self.v_blocks = [("C^n", 2 * n)]
        self._require_pi(n * n - 1 + self.dim_c)
        self.factor_bases = (np.stack(torus.su_basis(n)),)
        self.pi = realify(self.factor_bases[0])
        self.root_spec = f"su({n})"

    def sample_vmats(self, rng, size):
        return realify(haar_special_unitary(self.n, rng, size))


class CaseVI(CaseOps):
    """Free two-step algebra: so(n) acting on R^n."""

    label = "VI"

    def __init__(self, params):
        self.n = n = params["n"]
        self.v_blocks = [("R^n", n)]
        self._require_pi(n * (n - 1) // 2)
        self.pi = np.stack(torus.so_basis(n))
        # so(2) is abelian: the whole of g is then center
        self.dim_c = 1 if n == 2 else 0
        if n % 2 == 0 and n >= 4:
            self.root_spec = f"so({n})"
            self.factor_bases = (self.pi,)

    def sample_vmats(self, rng, size):
        if self.n == 2:
            return super().sample_vmats(rng, size)
        return haar_special_orthogonal(self.n, rng, size)


class CaseVII(CaseOps):
    """The Heisenberg pair: g = R acting on C^n by multiples of 1j."""

    label = "VII"

    def __init__(self, params):
        self.n = n = params["n"]
        self.dim_c = 1
        self.v_blocks = [("C^n", 2 * n)]
        self._require_pi(1)
        self.pi = realify(1j * np.eye(n))[None, :, :]


class CaseVIII(CaseOps):
    """u(2) on (C^2)^k + (C^2)^n; the center acts only on the first block."""

    label = "VIII"
    root_spec = "su(2)"
    factor_bases = (SU2_MATS,)

    def __init__(self, params):
        self.k, self.n = k, n = params["k"], params["n"]
        self.dim_c = 1
        self.v_blocks = [("(C^2)^k", 4 * k), ("(C^2)^n", 4 * n)]
        self._require_pi(4)
        mats = []
        for m2, q in zip(SU2_MATS, SU2_QUATS):
            blocks = [realify(m2)] * k + [quat.left_mult_matrix(q)] * n
            mats.append(block_diag(*blocks))
        central = block_diag(*([realify(1j * np.eye(2))] * k + [np.zeros((4, 4))] * n))
        mats.append(central)
        self.pi = np.stack(mats)

    def sample_vmats(self, rng, size):
        g = quat.random_unit(rng, size)
        blocks = [realify(quat.to_su2(g))] * self.k + [quat.left_mult_matrix(g)] * self.n
        return _block_diag_stack(blocks)


class CaseIX(CaseV):
    """u(n) = su(n) + R Z0 acting on C^n, n >= 3: case V with the centre
    acting by multiples of 1j."""

    label = "IX"
    dim_c = 1

    def __init__(self, params):
        super().__init__(params)
        self.pi = np.concatenate([self.pi, realify(1j * np.eye(self.n))[None]])


class CaseX(CaseOps):
    """Worked instance su(m) + su(2) + c on C^m + (C^2)^k + (C^2)^n.

    The one-dimensional center acts as multiplication by 1j on both the
    C^m and (C^2)^k blocks; the general members of this family are not
    built.
    """

    label = "X"

    def __init__(self, params):
        self.m, self.k, self.n = m, k, n = params["m"], params["k"], params["n"]
        self.dim_c = 1
        self.v_blocks = [("C^m", 2 * m), ("(C^2)^k", 4 * k), ("(C^2)^n", 4 * n)]
        self._require_pi(m * m + 3)
        self.factor_bases = (np.stack(torus.su_basis(m)), SU2_MATS)
        zero_m = np.zeros((2 * m, 2 * m))
        mats = []
        for b in self.factor_bases[0]:
            mats.append(block_diag(realify(b), np.zeros((4 * k + 4 * n, 4 * k + 4 * n))))
        for m2, q in zip(SU2_MATS, SU2_QUATS):
            blocks = [zero_m] + [realify(m2)] * k + [quat.left_mult_matrix(q)] * n
            mats.append(block_diag(*blocks))
        central = block_diag(
            realify(1j * np.eye(m)), *([realify(1j * np.eye(2))] * k + [np.zeros((4, 4))] * n)
        )
        mats.append(central)
        self.pi = np.stack(mats)
        self.root_spec = f"su({m})+su(2)"

    def sample_vmats(self, rng, size):
        us = realify(haar_special_unitary(self.m, rng, size))
        g = quat.random_unit(rng, size)
        blocks = [us] + [realify(quat.to_su2(g))] * self.k + [quat.left_mult_matrix(g)] * self.n
        return _block_diag_stack(blocks)


class Family(NamedTuple):
    """One family of the catalog and its parameter contract: the model
    class, the parameter names in order, the range (valid, called with
    the values in that order) with the message a value outside it
    raises, and the defaults of the names that may be left out."""

    model: type
    names: tuple
    valid: Callable
    message: str
    defaults: dict = {}


CASES = {
    "I": Family(CaseI, ("n",), lambda n: n >= 1, "case I needs n >= 1"),
    "II": Family(CaseII, ("n",), lambda n: n >= 0, "case II needs n >= 0"),
    "III": Family(CaseIII, ("k1", "k2"), lambda k1, k2: k1 >= 0 and k2 >= 0 and k1 + k2 >= 1,
                  "case III needs k1, k2 >= 0 with k1 + k2 >= 1"),
    "IV": Family(CaseIV, ("n",), lambda n: n >= 1, "case IV needs n >= 1"),
    "V": Family(CaseV, ("n",), lambda n: n >= 3, "case V needs n >= 3"),
    "VI": Family(CaseVI, ("n",), lambda n: n >= 2, "case VI needs n >= 2"),
    "VII": Family(CaseVII, ("n",), lambda n: n >= 1, "case VII needs n >= 1"),
    "VIII": Family(CaseVIII, ("k", "n"), lambda k, n: k >= 1 and n >= 0,
                   "case VIII needs k >= 1 and n >= 0", {"n": 0}),
    "IX": Family(CaseIX, ("n",), lambda n: n >= 3, "case IX needs n >= 3"),
    "X": Family(CaseX, ("m", "k", "n"), lambda m, k, n: m >= 3 and k >= 1 and n >= 0,
                "case X instance needs m >= 3, k >= 1, n >= 0", {"n": 0}),
}


def case_params(case, params):
    """The parameters of the family labelled case, as a dict of Python
    ints in the order of its names with the defaults filled in.  This is
    the one check of a (case, params) pair, and it builds nothing.
    ValueError for an unknown label, or for a missing, extra,
    non-integer (numerics.is_count: int and np.integer, not bool) or
    out-of-range parameter."""
    family = CASES.get(case)
    if family is None:
        raise ValueError(f"unknown case label {case!r}")
    for name in params:
        if name not in family.names:
            raise ValueError(f"case {case} has no parameter {name!r}")
    given = {**family.defaults, **params}
    out = {}
    for name in family.names:
        if name not in given:
            raise ValueError(f"case {case} needs the parameter {name!r}")
        value = given[name]
        if not is_count(value, -np.inf):  # the range is family.valid's
            raise ValueError(f"case {case} needs an integer parameter {name!r}, got {value!r}")
        out[name] = int(value)
    if not family.valid(*out.values()):
        raise ValueError(family.message)
    return out
