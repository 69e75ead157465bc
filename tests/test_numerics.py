"""Quadrature, Laguerre recurrences, Haar samplers, and budget caps."""

import numpy as np
import pytest
from _oracles import qmat_dagger, qmat_mul
from scipy.special import eval_genlaguerre

from nilharm import quat
from nilharm.numerics import (
    DEFAULT_BUDGET,
    BudgetError,
    QuadratureSpec,
    _cofactors,
    _qr_haar,
    as_complex_vector,
    as_rng,
    haar_special_orthogonal,
    haar_special_unitary,
    haar_symplectic_quat,
    haar_unitary,
    laguerre,
    laguerre_all,
    leggauss,
    mc_mean,
    node_budget,
    require_budget,
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


@pytest.mark.parametrize("alpha", [-0.5, 0, 1, 3])
def test_laguerre_all_one_point_has_the_bits_of_the_array_path(alpha):
    # a 0-d x runs the recurrence in Python floats; every row must carry
    # the bits of the same x inside an array
    xs = np.array([0.0, 1e-8, 0.7, 30.0, 400.0])
    for kmax in (0, 1, 2, 7, 60):
        table = laguerre_all(kmax, alpha, xs)
        for i, x in enumerate(xs):
            for point in (float(x), x, np.array(x)):
                one = laguerre_all(kmax, alpha, point)
                assert one.shape == (kmax + 1,) and one.dtype == np.float64
                for k in range(kmax + 1):
                    assert np.array_equal(one[k], table[k, i]), (kmax, k, x)


@pytest.mark.parametrize("alpha", [-1.0, -2.5, np.float64(-1.0), -1])
def test_laguerre_all_one_point_rejects_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must exceed -1"):
        laguerre_all(3, alpha, 0.5)


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


def test_sphere_character_one_point_has_the_bits_of_the_array_path():
    # both sides of the series threshold |a| < 1e-4
    pts = np.array([0.0, 5e-5, -5e-5, 1e-4, -1e-4, 0.7, 1e3])
    table = sphere_character(pts)
    assert table.shape == pts.shape
    for a, want in zip(pts, table):
        for point in (float(a), a, np.array(a)):
            got = sphere_character(point)
            assert type(got) is float and np.array_equal(got, want), a


@pytest.mark.parametrize("a", [float("inf"), -float("inf"), float("nan"), [0.5, float("inf")],
                               np.array(float("nan")), np.array([float("nan")]),
                               np.array([float("inf")]), np.array([-float("inf")])])
def test_sphere_character_rejects_a_non_finite_argument(a):
    # before, nan under a suppressed invalid-value warning
    with pytest.raises(ValueError, match="finite argument"):
        sphere_character(a)


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
    # column-major points with the values of the interleaved construction
    assert pts.flags.f_contiguous and pts.shape == (11**3, 3)
    assert np.array_equal(pts, np.stack([m.ravel() for m in mesh], axis=-1))
    wmesh = np.meshgrid(*wts, indexing="ij")
    assert np.array_equal(w, wmesh[0].ravel() * wmesh[1].ravel() * wmesh[2].ravel())


def test_quadrature_rejects_too_few_nodes():
    for nodes in (0, -3):
        with pytest.raises(ValueError):
            QuadratureSpec.cube(nodes, 1.0, 2)
    pts, w = QuadratureSpec.cube(1, 1.0, 1).grid()
    assert pts.shape == (1, 1) and w[0] == 2.0


@pytest.mark.parametrize("args", [
    (3, -1.0, 1), (3, 0.0, 1), (3, float("inf"), 2), (3, float("nan"), 2),
    (3, 1.0, 0), (3, 1.0, -1), (3, 1.0, 1.5), (2.5, 1.0, 1), (3.0, 1.0, 1),
], ids=["negative-width", "zero-width", "inf-width", "nan-width", "dim-0", "dim-negative",
        "dim-float", "nodes-float", "nodes-float-integral"])
def test_quadrature_rejects_bad_sizes(args):
    # before, a negative width integrated 1 over [-1, 1] as -2, a
    # non-finite one gave non-finite nodes and weights, and dim = 0 or a
    # float size failed inside numpy, or not at all
    with pytest.raises(ValueError, match="gauss-legendre rule needs"):
        QuadratureSpec.cube(*args)


def test_budget_error(monkeypatch):
    monkeypatch.setenv("NILHARM_BUDGET", "100")
    with pytest.raises(BudgetError):
        QuadratureSpec.cube(50, 1.0, 2).grid()


def test_budget_follows_the_variable_between_calls(monkeypatch):
    # the parsed bound is cached per value of the variable, so a new
    # value takes effect on the next call
    monkeypatch.setenv("NILHARM_BUDGET", "100")
    assert require_budget(100, "{} nodes", 100) == 100
    with pytest.raises(BudgetError, match=r"^101 nodes exceed NILHARM_BUDGET=100$"):
        require_budget(101, "{} nodes", 101)
    monkeypatch.setenv("NILHARM_BUDGET", "1e3")
    assert node_budget() == 1000 and require_budget(101, "{} nodes", 101) == 101
    monkeypatch.setenv("NILHARM_BUDGET", "100")
    with pytest.raises(BudgetError):
        require_budget(101, "{} nodes", 101)
    monkeypatch.delenv("NILHARM_BUDGET")
    assert node_budget() == DEFAULT_BUDGET
    monkeypatch.setenv("NILHARM_BUDGET", "lots")
    with pytest.raises(ValueError):
        require_budget(1, "{} nodes", 1)


def test_budget_formats_its_message_only_on_failure(monkeypatch):
    class Unformattable:
        def __format__(self, spec):
            raise AssertionError("formatted on success")

    monkeypatch.setenv("NILHARM_BUDGET", "10")
    assert require_budget(10, "{} entries", Unformattable()) == 10
    with pytest.raises(AssertionError, match="formatted on success"):
        require_budget(11, "{} entries", Unformattable())


def _is_positive_qr(q, z):
    r = np.conj(np.swapaxes(q, -1, -2)) @ z
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return np.allclose(np.tril(r, -1), 0.0, atol=1e-12) and np.allclose(d.imag, 0.0, atol=1e-12) \
        and bool(np.all(d.real > 0))


def test_haar_orthogonal_and_unitary():
    rng = as_rng(4)
    for n in (2, 3, 5):
        g = haar_special_orthogonal(n, rng, 1)[0]
        assert np.allclose(g @ g.T, np.eye(n), atol=1e-12)
        u = haar_unitary(n, rng, 1)[0]
        assert np.allclose(u @ np.conj(u).T, np.eye(n), atol=1e-12)
        su = haar_special_unitary(n, rng, 1)[0]
        assert abs(np.linalg.det(su) - 1) < 1e-12
    # one stack of 6 draws what six consecutive stacks of 1 draw: SO and
    # SU take closed-form cofactors for n = 1 to 4, np.linalg.det for 5
    # and 6
    for sampler in (haar_special_orthogonal, haar_unitary, haar_special_unitary):
        for n in (1, 2, 3, 4, 5, 6):
            rng = as_rng(n)
            singles = np.concatenate([sampler(n, rng, 1) for _ in range(6)])
            stack = sampler(n, as_rng(n), size=6)
            assert np.array_equal(stack, singles)
            assert np.allclose(stack @ np.conj(np.swapaxes(stack, 1, 2)), np.eye(n), atol=1e-12)
            if sampler is not haar_unitary:
                assert np.allclose(np.linalg.det(stack), 1.0, atol=1e-12)
    # U(n) is the Q factor, with positive diagonal R, of one Gaussian
    # array in per-sample stream order: (S, n, n) real, (S, 2, n, n) for
    # the real and then imaginary parts
    for n in (2, 3, 5):
        z = as_rng(n).standard_normal((6, n, n))
        assert _is_positive_qr(_qr_haar(z), z)
        g = as_rng(n).standard_normal((6, 2, n, n))
        assert _is_positive_qr(haar_unitary(n, as_rng(n), size=6), g[:, 0] + 1j * g[:, 1])


def _orthogonality(q):
    n = q.shape[-1]
    return float(np.max(np.abs(np.conj(np.swapaxes(q, -1, -2)) @ q - np.eye(n))))


def _linalg_cofactors(a):
    """C_r = (-1)^(r+n-1) det(a without row r) of an (S, n, n - 1) stack,
    by np.linalg.det."""
    n = a.shape[-2]
    return np.stack([(-1) ** (r + n - 1) * np.linalg.det(np.delete(a, r, axis=-2)) for r in range(n)], axis=-1)


# n <= 4 takes the closed-form cofactors, 5 and 8 np.linalg.det
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_haar_samplers_on_a_large_stack(n):
    size = 20000
    g = as_rng(n).standard_normal((size, 2, n, n))
    u = haar_unitary(n, as_rng(n), size)
    assert _orthogonality(u) <= 1e-13
    assert _is_positive_qr(u, (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    # SO and SU draw cols Gaussian columns, n - 1 for n <= 4 and n
    # beyond, as (S, n, cols) real and (S, 2, n, cols) complex arrays;
    # their first n - 1 columns are the positive-R Q factor of those
    cols = n - 1 if n <= 4 else n
    z = as_rng(n).standard_normal((size, n, cols))
    g = as_rng(n).standard_normal((size, 2, n, cols))
    so = haar_special_orthogonal(n, as_rng(n), size)
    su = haar_special_unitary(n, as_rng(n), size)
    for s, m in ((so, z), (su, (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))):
        assert _orthogonality(s) <= 1e-13
        assert np.max(np.abs(np.linalg.det(s) - 1.0)) <= 1e-13
        assert _is_positive_qr(s[:, :, :n - 1], m[:, :, :n - 1])
        # the last column carries the determinant: the conjugate cofactors
        # of the first n - 1 columns, or conj(det) times the last column of
        # the full Q factor
        if n <= 4:
            last = np.conj(_linalg_cofactors(s[:, :, :n - 1]))
        else:
            q = _qr_haar(m)
            last = np.conj(np.linalg.det(q))[:, None] * q[:, :, -1]
        assert np.max(np.abs(s[:, :, -1] - last)) <= 1e-13


def test_qr_haar_keeps_nearly_parallel_columns_orthogonal():
    # columns 1e-7 apart: one classical Gram-Schmidt pass loses about
    # cond^2 * eps of orthogonality here, the second pass restores it
    rng = as_rng(17)
    for n in (3, 4, 8):
        base = rng.standard_normal((200, n, 1))
        z = base + 1e-7 * rng.standard_normal((200, n, n))
        assert _orthogonality(_qr_haar(z)) <= 1e-13
        zc = base + 1e-7 * (rng.standard_normal((200, n, n)) + 1j * rng.standard_normal((200, n, n)))
        assert _orthogonality(_qr_haar(zc)) <= 1e-13


def _planes(m):
    """The column planes (parts, cols, rows, S) of a real or complex
    (S, rows, cols) stack, as the samplers hold them."""
    parts = np.stack([m.real, m.imag], axis=1) if np.iscomplexobj(m) else m[:, None]
    return np.ascontiguousarray(np.transpose(parts, (1, 3, 2, 0)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_determinants_match_linalg(n):
    # the cofactors are the determinants of the (n - 1) x (n - 1) minors.
    # Gaussian stacks are far from unitary and some minors nearly
    # singular, where both routes lose accuracy relative to |C_r|: the
    # deviation is measured against Hadamard's bound prod_c |z_c| >= |C_r|
    rng = as_rng(40 + n)
    z = rng.standard_normal((2000, n, n - 1))
    for m in (z, z + 1j * rng.standard_normal((2000, n, n - 1))):
        c = _cofactors(_planes(m))
        assert c.shape == (1 + np.iscomplexobj(m), n, 2000)
        c = c[0] if len(c) == 1 else c[0] + 1j * c[1]
        bound = np.prod(np.linalg.norm(m, axis=-2), axis=-1)
        assert np.max(np.abs(c.T - _linalg_cofactors(m)) / bound[:, None]) <= 1e-13


@pytest.mark.parametrize("sampler,n", [(haar_special_unitary, 2), (haar_special_unitary, 3),
                                       (haar_special_unitary, 4), (haar_special_orthogonal, 3),
                                       (haar_special_orthogonal, 4), (haar_special_orthogonal, 5)])
def test_haar_trace_moments(sampler, n):
    # the defining representation is irreducible and has no invariant
    # vector, so E tr g = 0 and E |tr g|^2 = 1 under Haar measure
    tr = np.trace(sampler(n, as_rng(60 + n), 20000), axis1=1, axis2=2)
    for vals, expected in ((tr, 0.0), (np.abs(tr) ** 2, 1.0)):
        assert abs(vals.mean() - expected) <= 5 * vals.std() / np.sqrt(len(vals))


@pytest.mark.parametrize("sampler,n,power,special,full", [
    (haar_special_unitary, 2, 2, 1.0, 0.0), (haar_special_unitary, 3, 3, 1.0, 0.0),
    (haar_special_unitary, 4, 4, 1.0, 0.0), (haar_special_orthogonal, 3, 3, 1.0, 0.0),
    (haar_special_orthogonal, 4, 4, 4.0, 3.0)])
def test_haar_special_trace_moments(sampler, n, power, special, full):
    # E tr(g)^power counts the invariants in the power-th tensor power of
    # the defining representation: for SU(n) the one in Lambda^n, which
    # U(n) turns by det; for SO(3) the one in Lambda^3 = det; for SO(4),
    # (1/2, 1/2)^4 under SU(2) x SU(2) holds 2 x 2 of them, O(4) 3 (the
    # pairings of four factors).  At 40,000 samples the special group's
    # value lies more than 5 sem from the full group's
    vals = np.trace(sampler(n, as_rng(70 + n), 40000), axis1=1, axis2=2) ** power
    sem = vals.std() / np.sqrt(len(vals))
    assert abs(vals.mean() - special) <= 5 * sem
    assert abs(vals.mean() - full) > 5 * sem


def test_haar_symplectic_one_is_random_unit():
    # Sp(1) is the group of unit quaternions: the same draw, bit for bit
    for size in (1, 7, 1000):
        assert np.array_equal(haar_symplectic_quat(1, as_rng(9), size)[:, 0, 0],
                              quat.random_unit(as_rng(9), size))


def test_haar_unitary_moments():
    # E |u_11|^2 = 1/n for Haar U(n)
    rng = as_rng(5)
    n = 3
    # one sized draw: a stack equals its single draws (see
    # test_haar_orthogonal_and_unitary)
    vals = np.abs(haar_unitary(n, rng, 4000)[:, 0, 0]) ** 2
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
