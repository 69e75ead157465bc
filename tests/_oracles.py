"""Shared independent oracles for the test suite.

The chamber-chart Jacobian here is measured by matrix exponentials and
central finite differences only; it never touches the root-product
formula it is used to verify.  The library charts a factor element x
by its angles alone; the conjugating element g with x = Ad(g) H is
built here instead: for su(n) the phase-fixed eigenbasis of iX, for
sp(n) the quaternionic frame [v, j conj(v)], and for so(2m) a real
Schur form, a different factorization from the Hermitian
eigendecomposition the library uses.  Regularity here is read from the
singular values of ad_x on the factor, not from the roots.  The Fock
entries here are the alternating shift series, summed exactly in
rationals; the library uses the closed Laguerre form instead.  The
canonical invariant polynomials
here come from classical Gram-Schmidt of the generator monomials against
their moments, exact or by Gauss-Laguerre quadrature, and from the
Laguerre coefficient formula in exact rationals; the library builds the
closed-form products from a ratio recurrence instead.  The twisted
convolution here is the generic sum over a full 2n-dimensional tensor
grid; the library splits its Laguerre integrals over the real axes by
the addition theorem instead.  The quaternionic matrix product, adjoint
and complex-to-quaternionic map here check the library's quaternionic
Haar samples and its quaternionic-to-complex map.  The value of a
canonical polynomial and the structure constants of an algebra are
read-outs that only the tests need.  The sub-Laplacian here is a
finite-difference operator on the group law alone; it never reads the
weights or the Laguerre forms of the spherical functions it checks.
The Wynn epsilon table here runs on one run of partial sums at a time;
the library runs the runs of all frequency nodes and probes as the
columns of one table.
"""

import itertools
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial

import numpy as np
from scipy.linalg import expm, null_space, schur
from scipy.special import roots_genlaguerre

from nilharm import torus
from nilharm.algebra import _commutators
from nilharm.numerics import as_complex_vector, laguerre, node_budget
from nilharm.quat import qconj, qmat_to_complex, qmul


def _coords_fn(basis):
    """Coordinates in an orthonormal matrix basis under
    <A, B> = Re tr(A B^dagger); asserts orthonormality."""
    stack = np.stack([np.asarray(b, dtype=complex) for b in basis])
    gram = np.real(np.einsum("aij,bij->ab", stack, np.conj(stack)))
    assert np.allclose(gram, np.eye(len(stack)), atol=1e-12), "basis not orthonormal"

    def coords(mat):
        return np.real(np.einsum("kij,ij->k", np.conj(stack), np.asarray(mat, dtype=complex)))

    def matrix(c):
        return np.tensordot(np.asarray(c, dtype=float), stack, axes=1)

    return coords, matrix


def _angle_directions(factor):
    """Raw angle-space perturbation directions (su: sum-zero plane)."""
    if factor.kind == "su":
        return null_space(np.ones((1, factor.angle_len))).T
    return np.eye(factor.angle_len)


def chamber_jacobian_fd(factor, angles, g0=None, step=1e-5):
    """|det dPhi| of the conjugation chart Phi(g, H) = Ad(g) H at the
    point (g0, h_matrix(angles)), by central finite differences.

    Tangent coordinates: an orthonormal basis of the Cartan directions
    (orthonormalized h_matrix images) plus an orthonormal basis of
    their complement in the factor's matrix basis.  Ad(g0) is isometric
    so the determinant is independent of g0; passing one exercises the
    chart away from the identity coset.
    """
    coords, matrix = _coords_fn(factor_basis(factor))
    dim = factor.dim
    h0 = np.asarray(factor.h_matrix(angles), dtype=complex)
    traw = np.stack([coords(factor.h_matrix(q)) for q in _angle_directions(factor)])
    tdirs, _ = np.linalg.qr(traw.T)  # (dim, rank) orthonormal
    mdirs = null_space(tdirs.T)  # (dim, dim - rank) orthonormal
    dirs = np.concatenate([mdirs, tdirs], axis=1)
    assert dirs.shape == (dim, dim)
    nm = mdirs.shape[1]
    if g0 is None:
        g0 = np.eye(h0.shape[0], dtype=complex)

    def phi(p):
        y = matrix(dirs[:, :nm] @ p[:nm])
        h = h0 + matrix(tdirs @ p[nm:])
        g = g0 @ expm(y)
        return coords(conjugate(g, h))

    cols = np.empty((dim, dim))
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = step
        cols[:, a] = (phi(e) - phi(-e)) / (2.0 * step)
    return abs(np.linalg.det(cols))


def factor_basis(factor):
    """Orthogonal matrix basis of a torus factor: the library's su(n) and
    so(2m) bases (orthonormal), and for sp(n) its quaternionic basis as
    2n x 2n complex matrices (each of squared norm 2)."""
    if factor.kind == "sp":
        return [qmat_to_complex(b) for b in torus.sp_basis_quat(factor.n)]
    return {"su": torus.su_basis, "so": torus.so_basis}[factor.kind](factor.n)


def random_factor_element(factor, rng):
    """A random element of the factor's matrix model."""
    n = factor.n
    if factor.kind == "su":
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = (z - np.conj(z).T) / 2.0
        return x - np.trace(x) / n * np.eye(n)
    if factor.kind == "so":
        a = rng.standard_normal((n, n))
        return (a - a.T) / 2.0
    coeffs = rng.standard_normal(factor.dim)
    return sum(c * b for c, b in zip(coeffs, factor_basis(factor)))


def conjugate(g, h):
    """Ad(g) h = g h g^dagger (g h g^T for a real g)."""
    return g @ h @ np.conj(g).T


def _so_schur_element(x):
    """(q, theta) for a real skew 2m x 2m matrix from its real Schur
    form, sorted so that the rotation blocks precede the zero
    eigenvalues: each 2 x 2 block carries an angle t[2l+1, 2l]; a
    negative angle turns positive when the block's columns swap (which
    flips det q); the blocks are then ordered by angle, and if det q is
    negative the last block's columns swap and the last angle takes the
    minus sign."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    tol = 1e-12 * np.abs(x).max()
    t, q, _ = schur(x, output="real", sort=lambda re, im: abs(im) > tol)
    theta = t[np.arange(1, n, 2), np.arange(0, n, 2)]
    pairs = np.arange(n).reshape(-1, 2)
    pairs[theta < 0] = pairs[theta < 0, ::-1]
    theta = np.abs(theta)
    order = np.argsort(-theta, kind="stable")
    pairs, theta = pairs[order], theta[order]
    q = q[:, pairs.ravel()]
    if np.linalg.det(q) < 0:
        q[:, -2:] = q[:, [-1, -2]]
        theta[-1] = 0.0 - theta[-1]
    return q, theta


def chamber_element(factor, x):
    """(g, theta): an element g of the factor's group and chamber angles
    theta with Ad(g) h_matrix(theta) = x.

    su(n): the eigenbasis of iX (eigenvalues -theta, ascending), its
    first column divided by the determinant so that g lies in SU(n).
    sp(n): the eigenvectors v of the n lowest eigenvalues -theta of iX
    and their quaternionic partners j conj(v) = (-conj(v_2), conj(v_1)),
    the frame [v, j conj(v)] in Sp(n).  so(2m): the real Schur form.
    """
    if factor.kind == "so":
        return _so_schur_element(x)
    mu, u = np.linalg.eigh(1j * np.asarray(x, dtype=complex))
    if factor.kind == "su":
        u[:, 0] = u[:, 0] / np.linalg.det(u)
        return u, 0.0 - mu
    n = factor.n
    v = u[:, :n]
    jbar = np.concatenate([-np.conj(v[n:]), np.conj(v[:n])], axis=0)
    return np.concatenate([v, jbar], axis=1), 0.0 - mu[:n]


def regular_by_centralizer(factor, x, theta, norm=0.0, tol=1e-9):
    """Regularity of x from ad_x alone: x is regular when its centralizer
    is a maximal torus, i.e. ad_x on the factor has exactly rank
    vanishing singular values; the next one (the smallest |alpha(H)|
    over the roots) must exceed tol times the larger of the largest
    angle and norm, the functional's norm: the scale the library uses."""
    stack = np.stack([np.asarray(b, dtype=complex) for b in factor_basis(factor)])
    norms = np.real(np.einsum("kij,kij->k", np.conj(stack), stack))
    x = np.asarray(x, dtype=complex)
    ad = np.real(np.einsum("kij,bij->kb", np.conj(stack), x @ stack - stack @ x)) / norms[:, None]
    sv = np.sort(np.linalg.svd(ad, compute_uv=False))
    return bool(len(sv) == factor.rank or sv[factor.rank] > tol * max(norm, np.abs(theta).max()))


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cpowers(z, kmax):
    out = [(Fraction(1), Fraction(0))]
    for _ in range(kmax):
        out.append(_cmul(out[-1], z))
    return out


def fock_shift_series(mu, v, r, m):
    """Polynomial part of the one-coordinate Fock entry <pi_mu(v) e_m, e_r>,
    the shift series sum_q (-mu conj(v)/2)^(r-q)/(r-q)! C(m, q) v^(m-q),
    summed exactly; mu and v = (Re v, Im v) are taken as exact rationals
    (floats convert exactly).  Returns (Re, Im) as Fractions."""
    r, m = int(r), int(m)
    mu = Fraction(mu)
    vr, vi = Fraction(v[0]), Fraction(v[1])
    a = _cpowers((-mu * vr / 2, mu * vi / 2), r)
    b = _cpowers((vr, vi), m)
    re, im = Fraction(0), Fraction(0)
    for q in range(min(r, m) + 1):
        tr, ti = _cmul(a[r - q], b[m - q])
        c = Fraction(comb(m, q), factorial(r - q))
        re += c * tr
        im += c * ti
    return re, im


def fock_entry(mu, v, r, m, digits=60):
    """The full entry e^{-mu|v|^2/4} sqrt(r!/m! (2/mu)^(r-m)) times the
    exact shift series, with the two transcendental factors evaluated in
    decimal arithmetic at the given digits; returned as a Python complex."""
    r, m = int(r), int(m)
    mu = Fraction(mu)
    vr, vi = Fraction(v[0]), Fraction(v[1])
    re, im = fock_shift_series(mu, (vr, vi), r, m)
    ratio = Fraction(factorial(r), factorial(m)) * (2 / mu) ** (r - m)
    expo = -mu * (vr * vr + vi * vi) / 4

    def dec(f):
        return Decimal(f.numerator) / Decimal(f.denominator)

    with localcontext() as ctx:
        ctx.prec = digits
        scale = dec(ratio).sqrt() * dec(expo).exp()
        return complex(float(scale * dec(re)), float(scale * dec(im)))


def gamma_moments(alpha, lam, pmax):
    """Raw moments E[s^p], p = 0..pmax, of the Gamma law with shape
    alpha + 1 and scale 2 / lam: the rising factorials (2 / lam)^p (alpha + 1)_p."""
    steps = (2.0 / lam) * (alpha + 1.0 + np.arange(pmax))
    return np.concatenate([[1.0], np.cumprod(steps)])


def gauss_laguerre_moments(alpha, lam, pmax):
    """The same moments by a Gauss-Laguerre rule exact at degree pmax."""
    x, w = roots_genlaguerre(pmax // 2 + 2, alpha)
    p = np.arange(pmax + 1)
    return (2.0 / lam) ** p * (w @ np.power.outer(x, p)) / w.sum()


def gram_schmidt_invariants(alphas, lam, degree, moments=gamma_moments):
    """Classical Gram-Schmidt of the monomials s^a, |a| <= degree, in
    graded-lex order, against the product of the Gamma laws of the
    generators (shapes alpha_g + 1, scale 2 / lam), from their moments.

    Returns [(a, {exponents: coefficient})], each polynomial scaled to
    value 1 at the origin; no coefficient is dropped."""
    ngens = len(alphas)
    mom = [moments(a, lam, 2 * degree) for a in alphas]
    mons = [e for d in range(degree + 1)
            for e in sorted(itertools.product(range(d + 1), repeat=ngens)) if sum(e) == d]

    def inner(c1, c2):
        tot = 0.0
        for e1, a1 in c1.items():
            for e2, a2 in c2.items():
                m = a1 * a2
                for i in range(ngens):
                    m *= mom[i][e1[i] + e2[i]]
                tot += m
        return tot

    basis = []
    for mon in mons:
        cur = {mon: 1.0}
        for prev in basis:
            coef = inner(cur, prev) / inner(prev, prev)
            for e, a in prev.items():
                cur[e] = cur.get(e, 0.0) - coef * a
        basis.append(cur)
    zero = (0,) * ngens
    return [(mon, {e: a / c[zero] for e, a in c.items()}) for mon, c in zip(mons, basis)]


def laguerre_product_coefficient(leading, expo, alphas, lam):
    """Exact coefficient of s^expo in prod_g L_{a_g}^{alpha_g}(lam s_g / 2)
    / L_{a_g}^{alpha_g}(0), a = leading, as a Fraction; lam is taken as
    an exact rational (a float converts exactly)."""
    half = Fraction(lam) / 2
    out = Fraction(1)
    for a, k, alpha in zip(leading, expo, alphas):
        if k > a:
            return Fraction(0)
        out *= (-half) ** k * Fraction(comb(a + alpha, a - k), factorial(k) * comb(a + alpha, a))
    return out


def invariant_polynomial_value(q, svals):
    """Value of the canonical polynomial q at generator values svals,
    shape (..., ngens): the product over generators of
    L_a^alpha(lam s / 2) / L_a^alpha(0) at the leading exponents a, by
    the Laguerre recurrence; q.coeffs drops the terms below 1e-14, which
    s^k multiplies back up from degree about 16 on.  Leading axes are
    kept, and a single 1-d point gives a float."""
    svals = np.asarray(svals, dtype=float)
    if svals.ndim == 0 or svals.shape[-1] != len(q.alphas):
        raise ValueError(f"expected generator values of shape (..., {len(q.alphas)})")
    out = np.ones(svals.shape[:-1])
    for g, (a, alpha) in enumerate(zip(q.leading, q.alphas)):
        out = out * (laguerre(a, alpha, q.lam * svals[..., g] / 2.0) / laguerre(a, alpha, 0.0))
    return float(out) if svals.ndim == 1 else out


def structure_constants(alg):
    """f with [X_a, X_b] = sum_c f[a, b, c] X_c, read back from the
    commutators of the pi matrices by the library's Gram solve (pi is
    faithful on g)."""
    return alg._coords(_commutators(alg))


def symplectic_form(w, v):
    """B(w, v) = -Im <w, v> on C^n, the bracket of the Heisenberg pair
    in aligned coordinates."""
    return -np.sum(np.imag(w * np.conj(v)), axis=-1)


def twisted_convolution(f, g, lam, quad):
    """lam-twisted convolution on C^n.

    f and g are vectorized on complex points of shape (P, n); quad is a
    QuadratureSpec over R^(2n) (interleaved real coordinates) for the w
    integral.  Returns a callable evaluating

        (f x_lam g)(v) = int f(w) g(v - w) e^{(i lam / 2) B(w, v)} dw

    on complex points (P, n), in chunks under NILHARM_BUDGET.
    """
    pts, wts = quad.grid()
    n = pts.shape[1] // 2
    w = as_complex_vector(pts, n)
    fw = np.asarray(f(w), dtype=complex) * wts

    def convolved(v):
        v = np.atleast_2d(as_complex_vector(np.asarray(v), n))
        out = np.empty(len(v), dtype=complex)
        chunk = max(1, int(node_budget() // max(1, len(w))))
        for a in range(0, len(v), chunk):
            vb = v[a : a + chunk]
            diff = vb[:, None, :] - w[None, :, :]
            gv = np.asarray(g(diff.reshape(-1, n)), dtype=complex).reshape(len(vb), len(w))
            phase = np.exp(0.5j * lam * symplectic_form(w[None, :, :], vb[:, None, :]))
            out[a : a + chunk] = (fw[None, :] * gv * phase).sum(axis=1)
        return out

    return convolved


def qmat_mul(a, b):
    """Product of quaternionic matrices (..., p, m, 4) and (..., m, n, 4)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return qmul(a[..., :, :, None, :], b[..., None, :, :, :]).sum(axis=-3)


def qmat_dagger(m):
    """Conjugate transpose of a quaternionic matrix."""
    return np.swapaxes(qconj(m), -2, -3)


def complex_to_qmat(c):
    """Inverse of quat.qmat_to_complex (c must have the symplectic block
    form)."""
    c = np.asarray(c)
    p, n = c.shape[0] // 2, c.shape[1] // 2
    A = c[:p, :n]
    B = -c[:p, n:]
    return np.stack([A.real, A.imag, B.real, B.imag], axis=-1)


# the 9-point central second difference, exact for polynomials of degree 9
_SECOND_DIFFERENCE = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560])


def sublaplacian(alg, f, z, v, step=1.5e-2):
    """L f at the point (z, v) of N for the sub-Laplacian L = sum_i X_i^2
    over the orthonormal basis e_i of V, where X_i f(p) is the derivative
    of s -> f(p (0, s e_i)) at 0 (left-invariant).  The points (0, s e_i)
    commute, so X_i^2 f(p) is the second derivative of that curve, taken
    here by the 9-point central difference at spacing step.  f takes
    (z, v) and returns a number."""
    zero = np.zeros(alg.dim_g)
    total = 0.0
    for e in np.eye(alg.dim_v):
        curve = [f(*alg.group_mult((z, v), (zero, s * e))) for s in step * np.arange(-4, 5)]
        total += _SECOND_DIFFERENCE @ np.array(curve) / step**2
    return total


def wynn_limit(partial, scale):
    """Wynn epsilon limit estimate from one run of partial sums, the
    table built one column at a time: stop before any difference falls
    below 1e-13 scale, keep the last even column's final entry.
    Returns (estimate, order reached)."""
    eps_prev = np.zeros(len(partial) + 1, dtype=complex)
    eps_cur = np.asarray(partial, dtype=complex)
    best = eps_cur[-1]
    order = 0
    while len(eps_cur) >= 2:
        diffs = eps_cur[1:] - eps_cur[:-1]
        if np.any(np.abs(diffs) < 1e-13 * scale):
            break
        nxt = eps_prev[1: len(eps_cur)] + 1.0 / diffs
        eps_prev, eps_cur = eps_cur, nxt
        order += 1
        if order % 2 == 0:
            best = eps_cur[-1]
    return best, order
