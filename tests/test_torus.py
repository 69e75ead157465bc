"""Compact factors: bases, chamber reduction, and the theta density."""

import zlib

import numpy as np
import pytest

from nilharm import torus
from nilharm.numerics import as_rng, haar_special_unitary
from _oracles import chamber_jacobian_fd, schur_chamber_angles


@pytest.mark.parametrize("name,maker,dim,scale", [
    # the complex 2n x 2n embedding of sp(n) doubles Frobenius norms
    ("su(2)", lambda: torus.su_basis(2), 3, 1.0),
    ("su(3)", lambda: torus.su_basis(3), 8, 1.0),
    ("so(4)", lambda: torus.so_basis(4), 6, 1.0),
    ("sp(2)", lambda: torus.sp_basis(2), 10, 2.0),
])
def test_bases_orthogonal_antihermitian(name, maker, dim, scale):
    basis = maker()
    assert len(basis) == dim
    stack = np.stack([np.asarray(b, dtype=complex) for b in basis])
    gram = np.real(np.einsum("aij,bij->ab", stack, np.conj(stack)))
    assert np.allclose(gram, scale * np.eye(dim), atol=1e-12)
    assert np.allclose(stack, -np.conj(np.swapaxes(stack, 1, 2)), atol=1e-12)


def test_root_system_parsing():
    rs = torus.root_system("su(3)+so(4)")
    assert len(rs.factors) == 2
    assert rs.rank == 2 + 2
    assert sum(len(f.roots) for f in rs.factors) == 6 + 4
    # no model carries an abelian term, so the spec has none
    for spec in ("su(3)+c", "u(1)", "su3"):
        with pytest.raises(ValueError):
            torus.root_system(spec)


def test_su_angle_roundtrip():
    # the angles are the imaginary diagonal of h
    f = torus.root_system("su(3)").factors[0]
    a = np.array([0.7, -0.2, -0.5])
    assert np.array_equal(f.h_matrix(a), 1j * np.diag(a))
    with pytest.raises(ValueError):
        f.h_matrix(np.array([1.0, 1.0, 1.0]))


def test_so_angle_roundtrip():
    # one rotation block of angle a_l per coordinate pair (2l, 2l + 1)
    f = torus.root_system("so(4)").factors[0]
    h = f.h_matrix(np.array([1.2, 0.4]))
    assert np.array_equal(h, [[0, -1.2, 0, 0], [1.2, 0, 0, 0], [0, 0, 0, -0.4], [0, 0, 0.4, 0]])


def test_to_chamber_su():
    rng = as_rng(0)
    rs = torus.root_system("su(3)")
    f = rs.factors[0]
    for _ in range(10):
        x = f.random_element(rng)
        gs, point = torus.to_chamber(rs, (x,))
        ang = point.angles[0]
        # dominant: descending, sum zero
        assert np.all(np.diff(ang) <= 1e-12)
        assert abs(ang.sum()) < 1e-10
        back = torus.reconstruct(rs, gs, point)[0]
        assert np.allclose(back, x, atol=1e-10)


def test_to_chamber_so():
    rng = as_rng(1)
    rs = torus.root_system("so(4)")
    f = rs.factors[0]
    for _ in range(10):
        x = f.random_element(rng)
        gs, point = torus.to_chamber(rs, (x,))
        ang = point.angles[0]
        assert ang[0] >= abs(ang[1]) - 1e-12  # dominant D_2 chamber
        assert abs(np.linalg.det(gs[0]) - 1) < 1e-10
        back = torus.reconstruct(rs, gs, point)[0]
        assert np.allclose(back, x, atol=1e-10)


def _so_elements(f, rng):
    """Random, repeated-angle and singular (one angle 0) elements of
    so(n), the structured ones conjugated by a random rotation."""
    m = f.rank
    q, r = np.linalg.qr(rng.standard_normal((f.n, f.n)))
    q = q * np.sign(np.diag(r))
    yield "random", f.random_element(rng)
    for kind, ang in [
        ("repeated", np.full(m, 0.8)),
        ("repeated-signed", np.r_[np.full(m - 1, 1.1), -1.1]),
        ("singular", np.r_[rng.uniform(0.2, 1.5, m - 1), 0.0]),
    ]:
        yield kind, q @ f.h_matrix(ang) @ q.T


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_so_to_chamber_matches_schur(n):
    # q in SO(n) to 1e-12, q^T x q = h_matrix(theta) to 1e-12, theta in
    # the closed chamber, and theta equal to the Schur-form angles
    rng = as_rng(100 + n)
    f = torus.SOFactor(n)
    for _ in range(5):
        for kind, x in _so_elements(f, rng):
            q, theta = f.to_chamber(x)
            assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-12, kind
            assert abs(np.linalg.det(q) - 1.0) < 1e-12, kind
            assert np.max(np.abs(q @ f.h_matrix(theta) @ q.T - x)) < 1e-12, kind
            assert np.all(np.diff(theta[:-1]) <= 1e-12), kind
            if n > 2:
                assert theta[-2] >= abs(theta[-1]) - 1e-12, kind
            assert np.max(np.abs(theta - schur_chamber_angles(x))) < 1e-12, kind


def test_to_chamber_sp():
    rng = as_rng(2)
    rs = torus.root_system("sp(2)")
    f = rs.factors[0]
    for _ in range(5):
        x = f.random_element(rng)
        gs, point = torus.to_chamber(rs, (x,))
        back = torus.reconstruct(rs, gs, point)[0]
        assert np.allclose(back, x, atol=1e-9)


def test_theta_values():
    rs = torus.root_system("su(2)")
    # roots +-(a1 - a2): theta(a, -a) = (2a)^2
    assert abs(torus.theta(rs, (np.array([0.7, -0.7]),)) - 1.96) < 1e-12
    rs4 = torus.root_system("so(4)")
    a = np.array([1.5, 0.5])
    assert abs(torus.theta(rs4, (a,)) - (1.5**2 - 0.5**2) ** 2) < 1e-12
    # a system without factors has no roots
    rs0 = torus.RootSystem(factors=())
    assert torus.theta(rs0, ()) == 1.0


def test_theta_conjugation_invariant():
    # theta computed from the chamber angles of Ad(g) x matches that of x
    rng = as_rng(3)
    rs = torus.root_system("su(3)")
    f = rs.factors[0]
    x = f.random_element(rng)
    _, point = torus.to_chamber(rs, (x,))
    g = haar_special_unitary(3, rng, 1)[0]
    _, point2 = torus.to_chamber(rs, (f.conjugate(g, x),))
    assert np.allclose(point.angles[0], point2.angles[0], atol=1e-10)


@pytest.mark.parametrize("spec", ["su(2)", "su(3)", "so(4)"])
def test_theta_matches_fd_jacobian(spec):
    # |det dPhi| of the conjugation chart, measured with expm and
    # central differences, against the root-product density
    rng = as_rng(zlib.crc32(spec.encode()))
    f = torus.root_system(spec).factors[0]
    checked = 0
    while checked < 5:
        raw = rng.uniform(0.3, 1.5, size=f.angle_len)
        if f.kind == "su":
            raw -= raw.mean()
        if not f.is_regular(raw):
            continue
        det = chamber_jacobian_fd(f, raw)
        ref = f.theta(raw)
        assert abs(det - ref) / ref < 1e-5
        checked += 1


def test_regularity_detection():
    f = torus.root_system("su(3)").factors[0]
    assert f.is_regular(np.array([0.8, 0.1, -0.9]))
    assert not f.is_regular(np.array([0.5, 0.5, -1.0]))


def test_angle_groups_are_checked():
    # one array per factor, each of the factor's angle_len; theta and
    # chamber_matrices share the check
    rs = torus.root_system("su(3)+su(2)")
    good = (np.array([1.0, 0.5, -1.5]), np.array([0.3, -0.3]))
    assert torus.theta(rs, good) == torus.theta(rs, [list(a) for a in good]) > 0
    assert len(torus.chamber_matrices(rs, good)) == 2
    for bad in (np.concatenate(good), good[:1], good + (np.zeros(1),),
                (good[0], np.array([0.3, -0.3, 0.0])), (good[0][:2], good[1]),
                (good[0], 0.3), (good[0], good[1][None])):
        for fn in (torus.theta, torus.chamber_matrices):
            with pytest.raises(ValueError):
                fn(rs, bad)
    with pytest.raises(ValueError):
        torus.theta(torus.RootSystem(factors=()), (np.zeros(1),))
