"""Quaternion arithmetic and the real/complex coordinate bridges."""

import numpy as np

from nilharm import quat
from nilharm.numerics import as_rng


def test_multiplication_table():
    assert np.allclose(quat.qmul(quat.I, quat.J), quat.K)
    assert np.allclose(quat.qmul(quat.J, quat.K), quat.I)
    assert np.allclose(quat.qmul(quat.K, quat.I), quat.J)
    assert np.allclose(quat.qmul(quat.I, quat.I), -quat.ONE)
    assert np.allclose(quat.qmul(quat.J, quat.I), -quat.K)


def test_mult_matrices_realize_products():
    rng = as_rng(0)
    for _ in range(20):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        assert np.allclose(quat.left_mult_matrix(a) @ b, quat.qmul(a, b), atol=1e-13)
        assert np.allclose(quat.right_mult_matrix(b) @ a, quat.qmul(a, b), atol=1e-13)


def test_left_right_mult_commute():
    # L_a R_b = R_b L_a since (a x) b = a (x b)
    rng = as_rng(1)
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)
    la, rb = quat.left_mult_matrix(a), quat.right_mult_matrix(b)
    assert np.allclose(la @ rb, rb @ la, atol=1e-13)


def test_unit_left_mult_is_orthogonal():
    rng = as_rng(2)
    g = quat.random_unit(rng)
    m = quat.left_mult_matrix(g)
    assert np.allclose(m @ m.T, np.eye(4), atol=1e-13)


def test_conjugation_norm_and_inverse():
    rng = as_rng(3)
    a = rng.standard_normal(4)
    n2 = quat.qnorm(a) ** 2
    assert np.allclose(quat.qmul(a, quat.qconj(a)), n2 * quat.ONE, atol=1e-12)


def test_rotation_matrix_is_so3():
    rng = as_rng(4)
    g = quat.random_unit(rng)
    r = quat.rotation_matrix(g)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(r) - 1) < 1e-12
    # conjugation action on the imaginary part matches r
    v = rng.standard_normal(3)
    q = np.concatenate([[0.0], v])
    conj = quat.qmul(quat.qmul(g, q), quat.qconj(g))
    assert abs(conj[0]) < 1e-12
    assert np.allclose(conj[1:], r @ v, atol=1e-12)


def test_to_su2_is_homomorphism():
    rng = as_rng(5)
    g1 = quat.random_unit(rng)
    g2 = quat.random_unit(rng)
    u1, u2 = quat.to_su2(g1), quat.to_su2(g2)
    u12 = quat.to_su2(quat.qmul(g1, g2))
    assert np.allclose(u1 @ u2, u12, atol=1e-12)
    assert np.allclose(u1 @ np.conj(u1).T, np.eye(2), atol=1e-12)


def test_qmat_complex_bridge():
    # quaternionic matrix multiplication agrees with its complex 2x2 image
    rng = as_rng(9)
    a = rng.standard_normal((2, 2, 4))
    b = rng.standard_normal((2, 2, 4))
    ca, cb = quat.qmat_to_complex(a), quat.qmat_to_complex(b)
    prod = quat.qmat_to_complex(quat.qmat_mul(a, b))
    assert np.allclose(ca @ cb, prod, atol=1e-12)
    back = quat.complex_to_qmat(ca)
    assert np.allclose(back, a, atol=1e-12)
