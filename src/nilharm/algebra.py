"""Two-step nilpotent algebras n = g + V built from compact pairs.

The algebra is determined by an orthogonal representation pi of a
compact Lie algebra g on a Euclidean space V.  The bracket of two
vectors of V is the element of g defined by

    <bracket(u, v), X> = <pi(X) u, v>   for all X in g,

all other brackets vanish, and g is the center of n.  The group N is
V x g with the Baker-Campbell-Hausdorff product

    (z1, v1) (z2, v2) = (z1 + z2 + bracket(v1, v2) / 2, v1 + v2).

`build_case` constructs the classified models by label; see
`cases.CASES` for the parameter names of each family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cases import CASES
from .numerics import as_rng, require_budget


@dataclass(frozen=True)
class CaseSpec:
    """Label plus parameters of one classified model, e.g.
    CaseSpec("VIII", {"k": 1, "n": 2})."""

    case: str
    params: dict

    def __str__(self):
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.case}({inner})"


class LauretAlgebra:
    """A concrete two-step algebra with orthonormal bases of g and V.

    Attributes
    ----------
    spec : CaseSpec
    dim_g, dim_v, dim_c, dim_gp : int
        Dimensions of g, V, the center c of g and of g' = [g, g].
        Coordinates on g list g' first and c last.
    pi : ndarray, shape (dim_g, dim_v, dim_v)
        Skew matrices of the generators acting on V.
    """

    def __init__(self, spec: CaseSpec):
        if spec.case not in CASES:
            raise ValueError(f"unknown case label {spec.case!r}")
        cls, names = CASES[spec.case]
        missing = [k for k in names if k not in spec.params and k != "n"]
        extra = [k for k in spec.params if k not in names]
        if extra:
            raise ValueError(f"unexpected parameters for case {spec.case}: {extra}")
        if missing:
            raise ValueError(f"missing parameters for case {spec.case}: {missing}")
        self.spec = spec
        self.ops = cls(spec.params)
        self.pi = self.ops.pi
        self.dim_g = self.ops.dim_g
        self.dim_v = self.ops.dim_v
        self.dim_c = self.ops.dim_c
        self.dim_gp = self.ops.dim_gp
        self._constants = None
        flat = self.pi.reshape(self.dim_g, -1)
        self._gram_inv = np.linalg.inv(flat @ flat.T)

    # -- coordinates ---------------------------------------------------------
    def split_center(self, x):
        """Split g-coordinates into (g' part, center part)."""
        x = np.asarray(x, dtype=float)
        return x[: self.dim_gp], x[self.dim_gp:]

    def join_center(self, xp, zc):
        return np.concatenate([np.atleast_1d(np.asarray(xp, dtype=float)),
                               np.atleast_1d(np.asarray(zc, dtype=float))])

    def from_chamber(self, H, Z):
        """g-coordinates of the functional with chamber data: H the tuple
        of per-factor angle arrays in the format that torus.theta checks
        (None or empty without a compact Cartan), Z the central
        coordinates (None for zero)."""
        xp = np.zeros(0)
        if self.dim_gp:
            if H is None:
                raise ValueError("this case needs chamber angles H")
            xp = self.ops.embed_angles(H)
        elif H is not None and len(H):
            raise ValueError("this case has no compact Cartan angles")
        zc = np.zeros(self.dim_c) if Z is None else np.atleast_1d(np.asarray(Z, dtype=float))
        if zc.size != self.dim_c:
            raise ValueError(f"expected {self.dim_c} central coordinates, got {zc.size}")
        return self.join_center(xp, zc)

    def pi_of(self, x):
        """The skew matrix pi(X) of X with g-coordinates x."""
        return np.tensordot(np.asarray(x, dtype=float), self.pi, axes=1)

    # -- bracket ---------------------------------------------------------------
    def bracket(self, u, v):
        """bracket(u, v) in g-coordinates, characterized by
        <bracket(u, v), X> = <pi(X) u, v>.  Leading batch axes of u and
        v broadcast."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.einsum("xij,...j,...i->...x", self.pi, u, v)

    @property
    def bracket_tensor(self):
        """T with T[x, i, j] = <bracket(e_i, e_j), X_x> = <pi(X_x) e_i, e_j>
        (shape (dim_g, dim_v, dim_v))."""
        return np.swapaxes(self.pi, 1, 2).copy()

    @property
    def structure_constants(self):
        """f with [X_a, X_b] = sum_c f[a, b, c] X_c, recovered from the
        commutators of the pi matrices (pi is faithful on g)."""
        if self._constants is None:
            d = self.dim_g
            flat = self.pi.reshape(d, -1).T
            f = np.zeros((d, d, d))
            resid = 0.0
            for a in range(d):
                for b in range(a + 1, d):
                    comm = (self.pi[a] @ self.pi[b] - self.pi[b] @ self.pi[a]).ravel()
                    coef, res, *_ = np.linalg.lstsq(flat, comm, rcond=None)
                    f[a, b] = coef
                    f[b, a] = -coef
                    resid = max(resid, np.linalg.norm(flat @ coef - comm))
            self._constants = (f, resid)
        return self._constants[0]

    # -- the adjoint action of G' ---------------------------------------------
    def ad_of(self, vmats):
        """Ad(g) on g-coordinates, shape (S, dim_g, dim_g), for a stack
        of V-matrices pi(g) (S, dim_v, dim_v).

        pi is faithful, so pi(Ad(g) X) = pi(g) pi(X) pi(g)^T fixes Ad(g):
        its coefficients follow by a solve against the Gram matrix of
        pi.  The center is fixed up to rounding.
        """
        flat = self.pi.reshape(self.dim_g, -1)
        vt = np.swapaxes(vmats, 1, 2)
        # coef[s, j, i] = <pi(X_j), pi(g) pi(X_i) pi(g)^T>, one generator
        # at a time so that no (S, dim_g, dim_v, dim_v) array is formed
        coef = np.stack([(vmats @ p @ vt).reshape(len(vmats), -1) @ flat.T for p in self.pi], axis=2)
        return self._gram_inv @ coef

    def orbit_pairing(self, vmats, y, z):
        """<Ad(g^-1) y, z> for each pi(g) of the stack, shape (S,).

        Equal to y @ ad_of(vmats) @ z, computed as the quadratic form
        vec(pi(g))^T (pi(y) kron pi(G^-1 z)) vec(pi(g)), G the Gram
        matrix of pi: one matrix product for the whole stack.
        """
        form = np.kron(self.pi_of(y), self.pi_of(self._gram_inv @ np.asarray(z, dtype=float)))
        flat = vmats.reshape(len(vmats), -1)
        return np.einsum("sk,sk->s", flat @ form, flat)

    # -- group law ---------------------------------------------------------------
    def group_mult(self, p, q):
        """BCH product of two points p = (z, v) of N."""
        z1, v1 = p
        z2, v2 = q
        z1 = np.asarray(z1, dtype=float)
        z2 = np.asarray(z2, dtype=float)
        v1 = np.asarray(v1, dtype=float)
        v2 = np.asarray(v2, dtype=float)
        return (z1 + z2 + 0.5 * self.bracket(v1, v2), v1 + v2)

    def root_system(self):
        return self.ops.root_system()

    def __repr__(self):
        return f"LauretAlgebra({self.spec}, dim_g={self.dim_g}, dim_v={self.dim_v})"


def build_case(case, **params) -> LauretAlgebra:
    """Construct the classified model with label case ("I".."X") and
    the keyword parameters of cases.CASES, e.g. build_case("V", n=3)."""
    return LauretAlgebra(CaseSpec(str(case), dict(params)))


@dataclass(frozen=True)
class OrthAutomorphism:
    """An automorphism of n acting orthogonally: v -> v_mat v on V and
    z -> g_mat z on g.

    Either one pair (g_mat (dim_g, dim_g), v_mat (dim_v, dim_v)) or a
    stack of S pairs (g_mat (S, dim_g, dim_g), v_mat (S, dim_v, dim_v));
    on a stack, apply and apply_functional map one point to the S
    transformed points, and len, indexing and iteration run over the
    pairs.
    """

    g_mat: np.ndarray
    v_mat: np.ndarray

    def apply(self, z, v):
        return self.g_mat @ np.asarray(z, dtype=float), self.v_mat @ np.asarray(v, dtype=float)

    def apply_functional(self, x):
        """Push a functional's g-coordinates forward (same as the
        g-action since the matrix is orthogonal)."""
        return self.g_mat @ np.asarray(x, dtype=float)

    def __len__(self):
        if np.ndim(self.v_mat) != 3:
            raise TypeError("one OrthAutomorphism pair is not a stack")
        return len(self.v_mat)

    def __getitem__(self, i):
        return OrthAutomorphism(self.g_mat[i], self.v_mat[i])


def sample_k_actions(alg: LauretAlgebra, rng=None, count=8):
    """Haar sample of the full compact factor K acting on N, as one
    stack: each element composes a G' pair (Ad, pi) with an independent
    V-intertwiner from U that fixes g (the identity where the case
    draws none)."""
    # entries of the G' stack, Ad, U and U pi(g)
    require_budget(count * (3 * alg.dim_v**2 + alg.dim_g**2), f"{count} automorphisms of (Ad, pi) matrices")
    rng = as_rng(rng)
    vmats = alg.ops.sample_vmats(rng, count)
    return OrthAutomorphism(alg.ad_of(vmats), alg.ops.u_part_automorphisms(rng, count) @ vmats)


# the old name, which benchmarks/workloads.py calls and tests/test_surface.py pins
sample_automorphisms = sample_k_actions


@dataclass
class StructureReport:
    """Residuals of the defining identities, all of which should sit at
    rounding level for a correctly assembled model."""

    spec: CaseSpec
    max_skewness: float
    max_closure_residual: float
    max_jacobi_residual: float
    max_invariance_residual: float
    max_bracket_residual: float
    bracket_rank: int
    dim_g: int
    trials: int


def check_structure(alg: LauretAlgebra, rng=None, trials=100) -> StructureReport:
    """Verify the defining identities of the model.

    Checks pi skewness, closure of commutators of pi matrices inside
    pi(g) (with the Jacobi identity and invariance of the inner product
    for the recovered structure constants), the bracket identity
    <bracket(u, v), X> = <pi(X) u, v> on random triples, and that the
    brackets of V with itself span all of g.
    """
    rng = as_rng(rng)
    skew = float(np.max(np.abs(alg.pi + np.swapaxes(alg.pi, 1, 2))))
    f = alg.structure_constants
    closure = alg._constants[1]
    d = alg.dim_g
    # Jacobi: sum over cyclic permutations of f([a,b],c)
    jac = np.einsum("abx,xcy->abcy", f, f)
    jacobi = jac + np.einsum("bcx,xay->abcy", f, f) + np.einsum("cax,xby->abcy", f, f)
    jacobi_res = float(np.max(np.abs(jacobi))) if d else 0.0
    invariance = float(np.max(np.abs(f + np.swapaxes(f, 1, 2)))) if d else 0.0
    bracket_res = 0.0
    for _ in range(trials):
        u = rng.standard_normal(alg.dim_v)
        v = rng.standard_normal(alg.dim_v)
        x = rng.standard_normal(alg.dim_g)
        lhs = float(alg.bracket(u, v) @ x)
        rhs = float(alg.pi_of(x) @ u @ v)
        scale = max(1.0, abs(lhs), abs(rhs))
        bracket_res = max(bracket_res, abs(lhs - rhs) / scale)
    mats = []
    for _ in range(4 * alg.dim_g + 8):
        u = rng.standard_normal(alg.dim_v)
        v = rng.standard_normal(alg.dim_v)
        mats.append(alg.bracket(u, v))
    rank = int(np.linalg.matrix_rank(np.stack(mats), tol=1e-8))
    return StructureReport(
        spec=alg.spec,
        max_skewness=skew,
        max_closure_residual=closure,
        max_jacobi_residual=jacobi_res,
        max_invariance_residual=invariance,
        max_bracket_residual=bracket_res,
        bracket_rank=rank,
        dim_g=alg.dim_g,
        trials=trials,
    )
