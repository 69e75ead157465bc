"""Two-step nilpotent algebras n = g + V built from compact pairs.

The algebra is determined by an orthogonal representation pi of a
compact Lie algebra g on a Euclidean space V.  The bracket of two
vectors of V is the element of g defined by

    <bracket(u, v), X> = <pi(X) u, v>   for all X in g,

all other brackets vanish, and g is the center of n.  The group N is
V x g with the Baker-Campbell-Hausdorff product

    (z1, v1) (z2, v2) = (z1 + z2 + bracket(v1, v2) / 2, v1 + v2).

`build_case` constructs the classified models by label; `cases.CASES`
states the parameter names, defaults and ranges of each family, and
`cases.case_params` checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cases import CASES, case_params
from .numerics import as_rng, is_count, require_budget


@dataclass(frozen=True)
class CaseSpec:
    """Label plus parameters of one classified model, e.g.
    CaseSpec("VIII", {"k": 1, "n": 2})."""

    case: str
    params: dict

    def __str__(self):
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.case}({inner})"


# V-matrix entries per block of an orbit pass: a block's samples, their
# Kronecker-form products and the integrand stay in cache (2,048 samples
# at dim_v = 4, 910 at dim_v = 6), and the per-block Python work is small
ORBIT_BLOCK_ENTRIES = 2**15


def orbit_block(dim_v):
    """Samples per block of LauretAlgebra.orbit_pass on a V of dimension
    dim_v: about ORBIT_BLOCK_ENTRIES V-matrix entries, at least one."""
    return max(1, ORBIT_BLOCK_ENTRIES // dim_v**2)


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
    last_functional : forms.Functional or None
        The one slot of forms.functional.
    """

    def __init__(self, spec: CaseSpec):
        params = case_params(spec.case, spec.params)
        self.spec = spec
        self.ops = CASES[spec.case].model(params)
        self.pi = self.ops.pi
        self.dim_g = self.ops.dim_g
        self.dim_v = self.ops.dim_v
        self.dim_c = self.ops.dim_c
        self.dim_gp = self.ops.dim_gp
        flat = self.pi.reshape(self.dim_g, -1)
        self._gram_inv = np.linalg.inv(flat @ flat.T)
        # _pi_rows[i, x dim_v + j] = pi[x, i, j]: v @ _pi_rows holds every
        # pi(X_x)^T v in one product
        self._pi_rows = np.ascontiguousarray(self.pi.transpose(1, 0, 2).reshape(self.dim_v, -1))
        self.last_functional = None
        self._commutant = None
        self._weights = None

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

    def weight_matrix(self):
        """W, shape (dim_v / 2, chamber angles + dim_c): pi(h) of
        h = from_chamber(angles, zc) multiplies complex coordinate a of V
        by 1j (W @ concat(*angles, zc))[a].  h is linear in the chamber
        data, so column k is pi(h_k)[1::2, 0::2].diagonal() at the k-th
        unit vector (e_k - 1/n on su(n), whose angles sum to zero).  Built
        once; NotImplementedError where dim_v is odd or some pi(h_k) is not
        2 x 2 block diagonal, to rounding, on the interleaved coordinates."""
        if self._weights is None:
            if not self.ops.has_weights:
                raise NotImplementedError(f"case {self.spec.case} has odd dim V, so no weights; use pfaffian_abs")
            factors = self.root_system().factors if self.dim_gp else ()
            zeros = [np.zeros(f.angle_len) for f in factors]
            xs = [self.from_chamber(tuple(zeros[:i] + [u] + zeros[i + 1:]), None) for i, f in enumerate(factors)
                  for u in np.eye(f.angle_len) - (1 / f.angle_len if f.kind == "su" else 0)]
            mats = self.pi_of(np.array(xs + [self.from_chamber(tuple(zeros), z) for z in np.eye(self.dim_c)]))
            off_block = np.kron(np.eye(self.dim_v // 2), np.ones((2, 2))) == 0
            if (np.abs(mats[:, off_block]).max(axis=1, initial=0) > 1e-12 * np.abs(mats).max(axis=(1, 2))).any():
                raise NotImplementedError(f"case {self.spec.case}: pi of a chamber element is not 2 x 2 block "
                                          "diagonal on the interleaved complex coordinates of V, so no weights")
            self._weights = mats[:, 1::2, 0::2].diagonal(axis1=1, axis2=2).T.copy()
            self._weights.flags.writeable = False
        return self._weights

    def pi_of(self, x):
        """The skew matrix pi(X) of X with g-coordinates x (leading axes
        of x are kept)."""
        x = np.asarray(x, dtype=float)
        # the contraction np.tensordot(x, pi, axes=1) makes, without its
        # per-call overhead
        return (x.reshape(-1, self.dim_g) @ self.pi.reshape(self.dim_g, -1)).reshape(x.shape[:-1] + self.pi.shape[1:])

    # -- bracket ---------------------------------------------------------------
    def bracket(self, u, v):
        """bracket(u, v) in g-coordinates, characterized by
        <bracket(u, v), X> = <pi(X) u, v>.  Leading batch axes of u and
        v broadcast.

        One product t = v @ _pi_rows makes the rows pi(X_x)^T v of every
        generator, and a contraction with u pairs them.  t has
        count(v) dim_g dim_v entries, checked against NILHARM_BUDGET
        first; bracket(u, v) = -bracket(v, u), so a caller can put the
        smaller stack in v.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        count = math.prod(v.shape[:-1])
        require_budget(count * self._pi_rows.shape[1], "{} x {} x {} bracket-product entries",
                       count, self.dim_g, self.dim_v)
        t = (v @ self._pi_rows).reshape(v.shape[:-1] + (self.dim_g, self.dim_v))
        return np.einsum("...xj,...j->...x", t, u)

    @property
    def bracket_tensor(self):
        """T with T[x, i, j] = <bracket(e_i, e_j), X_x> = <pi(X_x) e_i, e_j>
        (shape (dim_g, dim_v, dim_v))."""
        return np.swapaxes(self.pi, 1, 2).copy()

    def _coords(self, mats):
        """g-coordinates (..., dim_g) of the projection of matrices
        (..., dim_v, dim_v) onto span pi(g), by one Gram solve."""
        flat = self.pi.reshape(self.dim_g, -1)
        return (mats.reshape(mats.shape[:-2] + (-1,)) @ flat.T) @ self._gram_inv

    # -- the adjoint action of G' ---------------------------------------------
    def ad_of(self, vmats):
        """Ad(g) on g-coordinates, shape (S, dim_g, dim_g), for a stack
        of V-matrices pi(g) (S, dim_v, dim_v).

        pi is faithful, so pi(Ad(g) X) = pi(g) pi(X) pi(g)^T fixes Ad(g):
        column i holds the g-coordinates of pi(g) pi(X_i) pi(g)^T.  The
        center is fixed up to rounding.
        """
        vt = np.swapaxes(vmats, 1, 2)
        # one generator at a time, so no (S, dim_g, dim_v, dim_v) array
        return np.stack([self._coords(vmats @ p @ vt) for p in self.pi], axis=2)

    def kronecker_forms(self, y, z):
        """The Kronecker forms pi(y) kron pi(G^-1 z) of y with each z of
        shape (..., dim_g), G the Gram matrix of pi: shape
        z.shape[:-1] + (dim_v^2, dim_v^2), made by one broadcast product.
        The count(z) dim_v^4 entries are checked against NILHARM_BUDGET
        first.  Build them once per orbit pass and pair every block of
        samples against them with pair_forms."""
        z = np.asarray(z, dtype=float)
        dv, n = self.dim_v, self.dim_v**2
        count = math.prod(z.shape[:-1])
        require_budget(count * n**2, "{} x {}^4 Kronecker-form entries", count, dv)
        pz = self.pi_of((self._gram_inv @ z[..., None])[..., 0]).reshape(-1, 1, dv, 1, dv)
        return (self.pi_of(y)[:, None, :, None] * pz).reshape(z.shape[:-1] + (n, n))

    def pair_forms(self, vmats, forms):
        """<Ad(g^-1) y, z> for each pi(g) of the stack vmats and each form
        of kronecker_forms(y, z), shape (S,) + z.shape[:-1].

        Equal to y @ ad_of(vmats) @ z, as the quadratic form
        vec(pi(g))^T (pi(y) kron pi(G^-1 z)) vec(pi(g)): one stacked
        product pairs every form, each bit for bit as if alone, and each
        row of vmats as in any stack (BLAS may round a row differently by
        the row count, in the last bits).
        """
        n = self.dim_v**2
        flat = vmats.reshape(len(vmats), n)
        prods = flat @ forms.reshape(-1, n, n)
        return np.einsum("ksm,sm->sk", prods, flat).reshape((len(vmats),) + forms.shape[:-2])

    def orbit_pass(self, rng, samples, forms):
        """Draw samples Haar V-matrices pi(g) of G' from rng and pair them
        against forms (kronecker_forms), block by block: yields
        (vmats, pair_forms(vmats, forms)) for blocks of orbit_block(dim_v)
        samples, the last one partial.  Every case with K_x-type runs, and
        IV, draws each sample's variates together, so the blocks are, byte
        for byte, one stack of all the samples.  The caller checks
        samples * dim_v^2 against NILHARM_BUDGET."""
        block = orbit_block(self.dim_v)
        for at in range(0, samples, block):
            vmats = self.ops.sample_vmats(rng, min(block, samples - at))
            yield vmats, self.pair_forms(vmats, forms)

    # -- U, the orthogonal commutant of pi --------------------------------------
    def commutant_basis(self):
        """A Frobenius-orthonormal basis (k, dim_v, dim_v) of the commutant
        C = {A : A pi(X) = pi(X) A for all X}: the null space (eigenvalues
        up to 1e-10 of the largest) of the Casimir map sum_i [pi_i, [pi_i, .]],
        sum_i K_i^T K_i on vec(A), K_i = kron(I, pi_i^T) - kron(pi_i, I).
        Built once, after its dim_v^4 entries pass NILHARM_BUDGET."""
        if self._commutant is None:
            dv = self.dim_v
            require_budget(dv**4, "{}^4 commutant-map entries", dv)
            eye = np.eye(dv)
            ks = (np.kron(eye, p.T) - np.kron(p, eye) for p in self.pi)
            w, vecs = np.linalg.eigh(sum(k.T @ k for k in ks))
            self._commutant = np.ascontiguousarray(vecs[:, w <= 1e-10 * w[-1]].T).reshape(-1, dv, dv)
        return self._commutant

    def sample_u(self, rng, size):
        """Haar sample of U, the orthogonal group of C, shape (size, dim_v,
        dim_v): the polar factor u @ vt of G = sum_k g_k B_k over the
        commutant_basis, g_k standard normal.  C is a *-algebra, so U lies
        in C; an orthogonal W in C is an isometry of C, so WG has the law
        of G, with polar factor WU (Mezzadri's argument for QR)."""
        basis = self.commutant_basis()
        g = rng.standard_normal((size, len(basis))) @ basis.reshape(len(basis), -1)
        u, _, vt = np.linalg.svd(g.reshape(size, self.dim_v, self.dim_v))
        return u @ vt

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
    the keyword parameters of cases.CASES, e.g. build_case("V", n=3);
    ValueError where cases.case_params rejects them.  spec.params keeps
    the parameters as given."""
    return LauretAlgebra(CaseSpec(str(case), dict(params)))


@dataclass(frozen=True)
class OrthAutomorphism:
    """An automorphism of n acting orthogonally: v -> v_mat v on V and
    z -> g_mat z on g.

    Either one pair (g_mat (dim_g, dim_g), v_mat (dim_v, dim_v)) or a
    stack of S pairs (g_mat (S, dim_g, dim_g), v_mat (S, dim_v, dim_v));
    on a stack, apply and apply_functional map one point to the S
    transformed points, and len, indexing and iteration run over the
    pairs.  len and iteration raise TypeError on one pair.
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

    def __iter__(self):
        # without it Python would iterate through __getitem__ and split one
        # pair into its matrix rows; len raises on one pair at iter() time
        return map(self.__getitem__, range(len(self)))


def sample_k_actions(alg: LauretAlgebra, rng=None, count=8):
    """Haar sample of K = G' x U acting on N, as one stack: each G' pair
    (Ad(g), pi(g)), drawn first, composed with an independent U of
    LauretAlgebra.sample_u, which fixes g.  U is +-I on VI with n >= 3;
    phi_orbit sees pi(g) v only through its moduli, so not the sign."""
    if not is_count(count):
        raise ValueError(f"sample_k_actions needs an integer count >= 1, got {count!r}")
    # entries of the G' stack, Ad, the Gaussian in C, its u and vt, U, U pi(g)
    require_budget(count * (6 * alg.dim_v**2 + alg.dim_g**2), "{} automorphisms of (Ad, pi) matrices", count)
    alg.commutant_basis()  # built, or a BudgetError, before anything is drawn
    rng = as_rng(rng)
    vmats = alg.ops.sample_vmats(rng, count)
    return OrthAutomorphism(alg.ad_of(vmats), alg.sample_u(rng, count) @ vmats)


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


def _commutators(alg):
    """The commutators [pi_a, pi_b], shape (dim_g, dim_g, dim_v, dim_v)."""
    d, n = alg.dim_g, alg.dim_v
    require_budget(d**2 * n**2, "{}^2 x {}^2 commutator entries", d, n)
    prods = alg.pi[:, None] @ alg.pi[None]
    return prods - np.swapaxes(prods, 0, 1)


def check_structure(alg: LauretAlgebra, rng=None, trials=100) -> StructureReport:
    """Verify the defining identities of the model.

    Checks pi skewness, closure of commutators of pi matrices inside
    pi(g) (with the Jacobi identity and invariance of the inner product
    for the structure constants), the bracket identity
    <bracket(u, v), X> = <pi(X) u, v> on trials >= 1 random triples, and
    that the brackets of V with itself span all of g.  Each table is
    checked against NILHARM_BUDGET before it is built.
    """
    if not is_count(trials):
        raise ValueError(f"check_structure needs an integer trials >= 1, got {trials!r}")
    rng = as_rng(rng)
    d, n = alg.dim_g, alg.dim_v
    comm = _commutators(alg)
    f = alg._coords(comm)
    # Jacobi: the cyclic sum of jac[a, b, c], the coordinates of
    # [[X_a, X_b], X_c], built once and read in three axis orders
    require_budget(d**4, "{}^4 Jacobi-table entries", d)
    jac = (f.reshape(-1, d) @ f.reshape(d, -1)).reshape(d, d, d, d)
    jacobi = jac + np.transpose(jac, (2, 0, 1, 3))
    jacobi += np.transpose(jac, (1, 2, 0, 3))
    require_budget(trials * n**2, "{} bracket trials of {}^2 pi(X) entries", trials, n)
    # one (u, v, X) row per trial, then one (u, v) pair per rank sample:
    # the stream of drawing them one vector at a time
    u, v, x = np.split(rng.standard_normal((trials, 2 * n + d)), [n, 2 * n], axis=1)
    # stacked (1 x k) @ (k x 1) products sum like the one-trial dots
    lhs = (alg.bracket(u, v)[:, None] @ x[:, :, None]).ravel()
    rhs = (np.swapaxes(alg.pi_of(x) @ u[:, :, None], 1, 2) @ v[:, :, None]).ravel()
    pairs = rng.standard_normal((4 * d + 8, 2, n))
    return StructureReport(
        spec=alg.spec,
        max_skewness=float(np.max(np.abs(alg.pi + np.swapaxes(alg.pi, 1, 2)))),
        max_closure_residual=float(np.max(np.linalg.norm((alg.pi_of(f) - comm).reshape(d, d, -1), axis=2))),
        max_jacobi_residual=float(np.max(np.abs(jacobi))),
        max_invariance_residual=float(np.max(np.abs(f + np.swapaxes(f, 1, 2)))),
        max_bracket_residual=float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs([lhs, rhs]).max(axis=0)))),
        bracket_rank=int(np.linalg.matrix_rank(alg.bracket(pairs[:, 0], pairs[:, 1]), tol=1e-8)),
        dim_g=alg.dim_g,
        trials=trials,
    )
