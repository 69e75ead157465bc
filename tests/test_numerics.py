"""Quadrature, Laguerre recurrences, Haar samplers, and budget caps."""

import numpy as np
import pytest
from _oracles import qmat_dagger, qmat_mul
from scipy.special import eval_genlaguerre

from nilharm.numerics import (
    BudgetError,
    QuadratureSpec,
    as_complex_vector,
    as_rng,
    haar_orthogonal,
    haar_special_orthogonal,
    haar_special_unitary,
    haar_symplectic_quat,
    haar_unitary,
    laguerre,
    laguerre_all,
    leggauss,
    mc_mean,
    sphere_character,
)


def test_laguerre_matches_scipy():
    rng = as_rng(0)
    for _ in range(50):
        k = int(rng.integers(0, 12))
        alpha = float(rng.uniform(0, 6))
        x = rng.uniform(0, 20, size=7)
        got = laguerre(k, alpha, x)
        ref = eval_genlaguerre(k, alpha, x)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_laguerre_all_stacks_orders():
    rng = as_rng(1)
    x = rng.uniform(0, 10, size=(4, 5))
    table = laguerre_all(6, 2.0, x)
    assert table.shape == (7, 4, 5)
    for k in range(7):
        assert np.allclose(table[k], laguerre(k, 2.0, x), rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.5, -0.5])
def test_laguerre_all_rows_equal_laguerre(alpha):
    x = as_rng(4).uniform(0, 40, size=(30, 7))
    table = laguerre_all(25, alpha, x)
    for k in range(26):
        assert np.array_equal(table[k], laguerre(k, alpha, x))


@pytest.mark.parametrize("alpha", [0.0, 1.5, -0.5])
def test_laguerre_all_scalar_rows_equal_laguerre(alpha):
    # a scalar x gives shape (kmax+1,), one row per order
    for x in (0.0, 2.7, np.float64(13.0)):
        for kmax in (0, 1, 2, 9):
            table = laguerre_all(kmax, alpha, x)
            assert table.shape == (kmax + 1,)
            for k in range(kmax + 1):
                assert np.array_equal(table[k], laguerre(k, alpha, x))


def test_laguerre_addition_theorem():
    # L_j^(0)(x + y) = sum_{i <= j} L_i^(-1/2)(x) L_{j-i}^(-1/2)(y), the
    # identity that splits the Heisenberg inversion slices over two axes
    J = 60
    x, y = np.meshgrid(np.linspace(0.0, 30.0, 13), np.linspace(0.0, 30.0, 11), indexing="ij")
    lx, ly = laguerre_all(J, -0.5, x), laguerre_all(J, -0.5, y)
    for j in range(J + 1):
        got = np.einsum("i...,i...->...", lx[: j + 1], ly[j::-1])
        want = eval_genlaguerre(j, 0.0, x + y)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-11)
        # the factors themselves agree with the oracle too
        assert np.allclose(lx[j], eval_genlaguerre(j, -0.5, x), rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("kmax, alpha", [(-1, 0.0), (2.5, 0.0), (3, -1.0), (3, -2.5),
                                         (3, np.array([0.0, -1.0]))])
def test_laguerre_all_rejects_bad_input(kmax, alpha):
    with pytest.raises(ValueError):
        laguerre_all(kmax, alpha, np.ones(2))


def test_laguerre_all_accepts_edge_input():
    # alpha = -1/2 is inside the range; an integral float kmax is an int
    assert np.array_equal(laguerre_all(3.0, -0.5, np.ones(2)), laguerre_all(3, -0.5, np.ones(2)))
    assert laguerre_all(0, -0.999, np.ones(2)).shape == (1, 2)


def test_laguerre_recurrence_identity():
    # (k+1) L_{k+1} = (2k + alpha + 1 - x) L_k - (k + alpha) L_{k-1}
    rng = as_rng(2)
    x = rng.uniform(0, 15, size=20)
    alpha = 1.5
    t = laguerre_all(8, alpha, x)
    for k in range(1, 8):
        lhs = (k + 1) * t[k + 1]
        rhs = (2 * k + alpha + 1 - x) * t[k] - (k + alpha) * t[k - 1]
        assert np.allclose(lhs, rhs, rtol=1e-11, atol=1e-11)


def test_mc_mean_keeps_dtype():
    # stderr = sqrt(sum |v - mean|^2) / S for real and complex samples;
    # real samples give a real mean
    vals = as_rng(3).standard_normal(40)
    for v in (vals, vals[:20] + 1j * vals[20:]):
        mean, stderr = mc_mean(v)
        assert mean.dtype == v.dtype and mean == np.mean(v)
        assert stderr == float(np.sqrt(np.sum(np.abs(v - np.mean(v)) ** 2)) / len(v))


def test_sphere_character_is_sphere_average():
    # sin(a)/a equals the average of e^{i a u} over u uniform on the
    # 2-sphere's polar coordinate, int_{-1}^{1} e^{i a c} dc / 2
    rng = as_rng(3)
    nodes, wts = np.polynomial.legendre.leggauss(60)
    for a in rng.uniform(0.1, 12.0, size=10):
        avg = np.sum(wts * np.exp(1j * a * nodes)) / 2.0
        assert abs(sphere_character(a) - avg) < 1e-13
    assert sphere_character(0.0) == 1.0


def test_quadrature_gaussian_integral():
    spec = QuadratureSpec.cube(40, 6.0, 2)
    pts, w = spec.grid()
    val = np.sum(w * np.exp(-np.sum(pts**2, axis=1)))
    assert abs(val - np.pi) < 1e-12


def test_quadrature_polynomial_exactness():
    # Gauss-Legendre with k nodes integrates degree 2k-1 exactly
    spec = QuadratureSpec.cube(6, 1.5, 1)
    pts, w = spec.grid()
    for deg in range(0, 12, 2):
        val = np.sum(w * pts[:, 0] ** deg)
        ref = 2 * 1.5 ** (deg + 1) / (deg + 1)
        assert abs(val - ref) < 1e-12 * max(1.0, ref)


def test_leggauss_is_cached_and_read_only():
    x, w = leggauss(17)
    assert leggauss(17)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    ref_x, ref_w = np.polynomial.legendre.leggauss(17)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


def test_grid_matches_direct_leggauss_construction():
    spec = QuadratureSpec.cube(11, 1.5, 3)
    assert (spec.nodes, spec.half_width, spec.dim, spec.rule) == (11, 1.5, 3, "gauss-legendre")
    pts, w = spec.grid()
    x, w1 = np.polynomial.legendre.leggauss(11)
    axes = [1.5 * x] * 3
    wts = [1.5 * w1] * 3
    mesh = np.meshgrid(*axes, indexing="ij")
    assert np.array_equal(pts, np.stack([m.ravel() for m in mesh], axis=-1))
    wmesh = np.meshgrid(*wts, indexing="ij")
    assert np.array_equal(w, wmesh[0].ravel() * wmesh[1].ravel() * wmesh[2].ravel())


def test_quadrature_rejects_too_few_nodes():
    for nodes in (0, -3):
        with pytest.raises(ValueError):
            QuadratureSpec.cube(nodes, 1.0, 2)
    pts, w = QuadratureSpec.cube(1, 1.0, 1).grid()
    assert pts.shape == (1, 1) and w[0] == 2.0


def test_budget_error(monkeypatch):
    monkeypatch.setenv("NILHARM_BUDGET", "100")
    with pytest.raises(BudgetError):
        QuadratureSpec.cube(50, 1.0, 2).grid()


def _is_positive_qr(q, z):
    r = np.conj(np.swapaxes(q, -1, -2)) @ z
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return np.allclose(np.tril(r, -1), 0.0, atol=1e-12) and np.allclose(d.imag, 0.0, atol=1e-12) \
        and bool(np.all(d.real > 0))


def test_haar_orthogonal_and_unitary():
    rng = as_rng(4)
    for n in (2, 3, 5):
        g = haar_orthogonal(n, rng, 1)[0]
        assert np.allclose(g @ g.T, np.eye(n), atol=1e-12)
        u = haar_unitary(n, rng, 1)[0]
        assert np.allclose(u @ np.conj(u).T, np.eye(n), atol=1e-12)
        su = haar_special_unitary(n, rng, 1)[0]
        assert abs(np.linalg.det(su) - 1) < 1e-12
    # one stack of 6 draws what six consecutive stacks of 1 draw
    for sampler in (haar_orthogonal, haar_special_orthogonal, haar_unitary, haar_special_unitary):
        for n in (2, 3, 5):
            rng = as_rng(n)
            singles = np.concatenate([sampler(n, rng, 1) for _ in range(6)])
            stack = sampler(n, as_rng(n), size=6)
            assert np.array_equal(stack, singles)
            assert np.allclose(stack @ np.conj(np.swapaxes(stack, 1, 2)), np.eye(n), atol=1e-12)
            if sampler in (haar_special_orthogonal, haar_special_unitary):
                assert np.allclose(np.linalg.det(stack), 1.0, atol=1e-12)
    # the stack is the Q factor, with positive diagonal R, of one Gaussian
    # array in per-sample stream order: (S, n, n) real, (S, 2, n, n) for
    # the real and then imaginary parts
    for n in (2, 3, 5):
        z = as_rng(n).standard_normal((6, n, n))
        assert _is_positive_qr(haar_orthogonal(n, as_rng(n), size=6), z)
        g = as_rng(n).standard_normal((6, 2, n, n))
        assert _is_positive_qr(haar_unitary(n, as_rng(n), size=6), g[:, 0] + 1j * g[:, 1])


def test_haar_unitary_moments():
    # E |u_11|^2 = 1/n for Haar U(n)
    rng = as_rng(5)
    n = 3
    vals = np.array([abs(haar_unitary(n, rng, 1)[0, 0, 0]) ** 2 for _ in range(4000)])
    assert abs(vals.mean() - 1.0 / n) < 4 * vals.std() / np.sqrt(len(vals))


def test_haar_symplectic_quaternionic():
    rng = as_rng(6)
    g = haar_symplectic_quat(2, rng, 1)[0]
    # quaternionic unitarity: g g^dagger = identity in the (n, n, 4) encoding
    prod = qmat_mul(g, qmat_dagger(g))
    eye = np.zeros_like(prod)
    eye[np.arange(2), np.arange(2), 0] = 1.0
    assert np.allclose(prod, eye, atol=1e-12)
    # one stack of 5 draws what five consecutive stacks of 1 draw; in
    # Sp(3) the third column is orthogonalized against two earlier ones,
    # which Sp(2) never does
    for n in (2, 3):
        rng = as_rng(n)
        singles = np.concatenate([haar_symplectic_quat(n, rng, 1) for _ in range(5)])
        stack = haar_symplectic_quat(n, as_rng(n), size=5)
        assert np.array_equal(stack, singles)
        prod = qmat_mul(stack, qmat_dagger(stack))
        eye = np.zeros_like(prod)
        eye[:, np.arange(n), np.arange(n), 0] = 1.0
        assert np.allclose(prod, eye, atol=1e-12)
        # R = Q^dagger M is upper triangular with positive real diagonal
        r = qmat_mul(qmat_dagger(stack), as_rng(n).standard_normal((5, n, n, 4)))
        below = np.tril_indices(n, -1)
        assert np.allclose(r[:, below[0], below[1]], 0.0, atol=1e-12)
        diag = r[:, np.arange(n), np.arange(n)]
        assert np.all(diag[..., 0] > 0) and np.allclose(diag[..., 1:], 0.0, atol=1e-12)


def test_as_complex_vector_forms():
    rng = as_rng(2)
    v = rng.standard_normal((5, 6))
    ref = v[:, 0::2] + 1j * v[:, 1::2]
    for arr in (v, v[0], np.asfortranarray(v), rng.standard_normal((5, 12))[:, ::2]):
        got = as_complex_vector(arr, 3)
        assert np.array_equal(got, arr[..., 0::2] + 1j * arr[..., 1::2])
    got = as_complex_vector(v, 3)
    got[0, 0] = 7.0
    assert v[0, 0] != 7.0  # a copy, never a view of the input
    assert np.array_equal(as_complex_vector(ref, 3), ref)
    assert np.array_equal(as_complex_vector([1, 2, 3, 4], 2), [1 + 2j, 3 + 4j])
    # n reals are no point of C^n: a real point has 2n interleaved coordinates
    for bad, n in ((v[:, :5], 3), (ref, 2), (v[:, :3], 3), ([0.3, 0.4], 2)):
        with pytest.raises(ValueError):
            as_complex_vector(bad, n)


def test_as_rng_accepts_tuples():
    a = as_rng((3, 5)).standard_normal(4)
    b = as_rng((3, 5)).standard_normal(4)
    c = as_rng((3, 6)).standard_normal(4)
    assert np.allclose(a, b)
    assert not np.allclose(a, c)


def test_mc_integrate_sphere_character():
    # MC average of e^{i a g_00} over SO(3) Haar equals sin(a)/a
    a = 2.3
    vals = np.exp(1j * a * haar_special_orthogonal(3, as_rng(8), size=4000)[:, 0, 0])
    mean = vals.mean()
    stderr = np.sqrt((vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / len(vals))
    assert abs(mean - sphere_character(a)) <= 3 * stderr + 1e-12
