"""Shared independent oracles for the test suite.

The chamber-chart Jacobian here is measured by matrix exponentials and
central finite differences only; it never touches the root-product
formula it is used to verify.  The so(2m) chamber angles here come
from a real Schur form, a different factorization from the Hermitian
eigendecomposition the library uses.  The Fock entries here are the
alternating shift series, summed exactly in rationals; the library uses
the closed Laguerre form instead.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial

import numpy as np
from scipy.linalg import expm, null_space, schur


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
    coords, matrix = _coords_fn(factor.basis())
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
        return coords(factor.conjugate(g, h))

    cols = np.empty((dim, dim))
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = step
        cols[:, a] = (phi(e) - phi(-e)) / (2.0 * step)
    return abs(np.linalg.det(cols))


def schur_chamber_angles(x):
    """Chamber angles of a real skew 2m x 2m matrix from its real Schur
    form: each 2 x 2 block carries an angle t[2l+1, 2l]; a negative
    angle is made positive by swapping the block's columns (which
    flips det q), and if det q is then negative the smallest angle
    takes the minus sign."""
    t, q = schur(np.asarray(x, dtype=float), output="real")
    theta = np.array([t[2 * l + 1, 2 * l] for l in range(x.shape[0] // 2)])
    sign = np.sign(np.linalg.det(q)) * np.prod(np.where(theta < 0, -1.0, 1.0))
    theta = np.sort(np.abs(theta))[::-1]
    if sign < 0:
        theta[-1] = -theta[-1]
    return theta


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
