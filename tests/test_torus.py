"""Compact factors: bases, chamber reduction, and the theta density."""

import zlib
from math import comb

import numpy as np
import pytest

from nilharm import torus
from nilharm.algebra import build_case, sample_k_actions
from nilharm.forms import Functional
from nilharm.numerics import as_rng, haar_special_unitary
from _oracles import (chamber_element, chamber_jacobian_fd, conjugate, factor_basis,
                      random_factor_element, regular_by_centralizer)


@pytest.mark.parametrize("name,maker,dim,scale", [
    # the complex 2n x 2n embedding of sp(n) doubles Frobenius norms
    ("su(2)", lambda: torus.su_basis(2), 3, 1.0),
    ("su(3)", lambda: torus.su_basis(3), 8, 1.0),
    ("so(4)", lambda: torus.so_basis(4), 6, 1.0),
    ("sp(2)", lambda: factor_basis(torus.SpFactor(2)), 10, 2.0),
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


def _check_against_oracle(f, x, angles, tol=1e-10):
    """Ad(g) h_matrix(angles) = x for the oracle element g, and the
    library's angles equal the oracle's within 1e-13 max|theta|;
    returns the oracle's (g, theta)."""
    g, ref = chamber_element(f, x)
    assert np.max(np.abs(conjugate(g, f.h_matrix(angles)) - x)) < tol
    assert np.max(np.abs(angles - ref)) <= 1e-13 * np.abs(ref).max()
    return g, ref


def test_to_chamber_su():
    rng = as_rng(0)
    rs = torus.root_system("su(3)")
    f = rs.factors[0]
    for _ in range(10):
        x = random_factor_element(f, rng)
        point = torus.to_chamber(rs, (x,))
        ang = point.angles[0]
        # dominant: descending, sum zero
        assert np.all(np.diff(ang) <= 1e-12)
        assert abs(ang.sum()) < 1e-10
        g, _ = _check_against_oracle(f, x, ang)
        assert abs(np.linalg.det(g) - 1) < 1e-10


def test_to_chamber_so():
    rng = as_rng(1)
    rs = torus.root_system("so(4)")
    f = rs.factors[0]
    for _ in range(10):
        x = random_factor_element(f, rng)
        point = torus.to_chamber(rs, (x,))
        ang = point.angles[0]
        assert ang[0] >= abs(ang[1]) - 1e-12  # dominant D_2 chamber
        g, _ = _check_against_oracle(f, x, ang)
        assert abs(np.linalg.det(g) - 1) < 1e-10


def _so_elements(f, rng):
    """Random, repeated-angle and singular (one angle 0) elements of
    so(n), the structured ones conjugated by a random rotation."""
    m = f.rank
    q, r = np.linalg.qr(rng.standard_normal((f.n, f.n)))
    q = q * np.sign(np.diag(r))
    yield "random", random_factor_element(f, rng)
    for kind, ang in [
        ("repeated", np.full(m, 0.8)),
        ("repeated-signed", np.r_[np.full(m - 1, 1.1), -1.1]),
        ("singular", np.r_[rng.uniform(0.2, 1.5, m - 1), 0.0]),
    ]:
        yield kind, q @ f.h_matrix(ang) @ q.T


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_so_to_chamber_matches_schur(n):
    # the Schur element q in SO(n) to 1e-12 with q h_matrix(theta) q^T = x
    # to 1e-12 at the library's theta, theta in the closed chamber, and
    # theta equal to the Schur-form angles
    rng = as_rng(100 + n)
    f = torus.SOFactor(n)
    for _ in range(5):
        for kind, x in _so_elements(f, rng):
            theta = f.to_chamber(x)
            q, ref = chamber_element(f, x)
            assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-12, kind
            assert abs(np.linalg.det(q) - 1.0) < 1e-12, kind
            assert np.max(np.abs(q @ f.h_matrix(theta) @ q.T - x)) < 1e-12, kind
            assert np.all(np.diff(theta[:-1]) <= 1e-12), kind
            if n > 2:
                assert theta[-2] >= abs(theta[-1]) - 1e-12, kind
            assert np.max(np.abs(theta - ref)) < 1e-12, kind


def test_to_chamber_sp():
    rng = as_rng(2)
    rs = torus.root_system("sp(2)")
    f = rs.factors[0]
    for _ in range(5):
        x = random_factor_element(f, rng)
        point = torus.to_chamber(rs, (x,))
        ang = point.angles[0]
        # dominant C_2 chamber: descending and nonnegative
        assert np.all(np.diff(ang) <= 1e-12) and ang[-1] >= 0
        g, _ = _check_against_oracle(f, x, ang)
        # g is unitary and keeps the quaternionic structure J = [[0, -1], [1, 0]]
        jay = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        assert np.max(np.abs(g.conj().T @ g - np.eye(4))) < 1e-12
        assert np.max(np.abs(g.T @ jay @ g - jay)) < 1e-12


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
    x = random_factor_element(f, rng)
    point = torus.to_chamber(rs, (x,))
    g = haar_special_unitary(3, rng, 1)[0]
    gx = conjugate(g, x)
    point2 = torus.to_chamber(rs, (gx,))
    assert np.allclose(point.angles[0], point2.angles[0], atol=1e-10)
    assert abs(torus.theta(rs, point.angles) - torus.theta(rs, point2.angles)) < 1e-10
    _check_against_oracle(f, x, point.angles[0])
    _check_against_oracle(f, gx, point2.angles[0])


def _singular_angles(f):
    """Angles on a wall of the chamber: a repeated pair, or all zero
    where the factor's only wall is the origin (su(2), sp(1))."""
    if f.kind == "su":
        return np.r_[np.full(f.n - 1, 0.6), -0.6 * (f.n - 1)] if f.n > 2 else np.zeros(2)
    return np.full(f.angle_len, 0.7) if f.angle_len > 1 else np.zeros(f.angle_len)


@pytest.mark.parametrize("case,params", [
    ("I", {"n": 1}), ("II", {"n": 1}), ("III", {"k1": 1, "k2": 1}), ("IV", {"n": 1}),
    ("V", {"n": 3}), ("VI", {"n": 4}), ("VIII", {"k": 1, "n": 1}), ("IX", {"n": 3}),
    ("X", {"m": 3, "k": 1, "n": 1}),
])
def test_functional_chamber_matches_the_oracle(case, params):
    # every case with a root system: the angles of Functional.chamber
    # rebuild each factor matrix through the oracle element, equal the
    # oracle's angles, and the regular flag is the centralizer verdict;
    # random functionals plus G'-conjugates of a Cartan element on a wall
    alg = build_case(case, **params)
    rs = alg.root_system()
    rng = as_rng(zlib.crc32(case.encode()))
    wall = alg.from_chamber(tuple(_singular_angles(f) for f in rs.factors),
                            rng.standard_normal(alg.dim_c))
    xs = list(rng.standard_normal((6, alg.dim_g)))
    xs += [wall] + [k.apply_functional(wall) for k in sample_k_actions(alg, rng=rng, count=2)]
    verdicts = []
    for x in xs:
        angles, _, regular = Functional(alg, x).chamber
        mats = alg.ops.to_factor_mats(alg.split_center(x)[0])
        scale = max(1.0, max(np.abs(m).max() for m in mats))
        flags = []
        for f, m, a in zip(rs.factors, mats, angles):
            _, ref = _check_against_oracle(f, m, a, tol=1e-10 * scale)
            flags.append(regular_by_centralizer(f, m, ref, np.linalg.norm(x)))
        assert regular == all(flags)
        verdicts.append(regular)
    assert verdicts[:6] == [True] * 6 and not any(verdicts[6:])


def test_vanishing_angles_are_positive_zeros():
    # the chart forms angles as 0.0 - eigenvalue, so no angle is -0.0
    for case, params in [("I", {"n": 1}), ("IV", {"n": 1}), ("V", {"n": 3}), ("VI", {"n": 4}),
                         ("X", {"m": 3, "k": 1, "n": 1})]:
        alg = build_case(case, **params)
        angles, _, regular = Functional(alg, np.zeros(alg.dim_g)).chamber
        assert not regular
        for a in angles:
            assert np.array_equal(a, np.zeros_like(a)) and not np.signbit(a).any(), case


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


def _partitions(size, largest=None):
    """The partitions of size, parts descending."""
    if size == 0:
        yield ()
        return
    for first in range(min(size, largest or size), 0, -1):
        for rest in _partitions(size - first, first):
            yield (first,) + rest


def _hook_content_dim(hw, k):
    """dim of the GL(k) module of the partition hw: prod over the cells
    (i, j) of (k + j - i) / hook(i, j)."""
    cols = [sum(1 for a in hw if a > j) for j in range(hw[0])] if hw else []
    num = den = 1
    for i, a in enumerate(hw):
        for j in range(a):
            num *= k + j - i
            den *= (a - j) + (cols[j] - i) - 1
    return num // den


@pytest.mark.parametrize("k", range(2, 7))
def test_su_weyl_dim_is_hook_content(k):
    f = torus.root_system(f"su({k})").factors[0]
    for size in range(9):
        for hw in _partitions(size):
            assert f.weyl_dim(hw) == _hook_content_dim(hw, k), hw


@pytest.mark.parametrize("n", range(1, 5))
def test_sp_weyl_dim_closed_values(n):
    f = torus.root_system(f"sp({n})").factors[0]
    for a in range(9):
        # the degree-a polynomials on C^2n
        assert f.weyl_dim((a,)) == comb(2 * n + a - 1, a)
    if n >= 2:
        # the traceless part of the 2-forms
        assert f.weyl_dim((1, 1)) == n * (2 * n - 1) - 1
    for hw in _partitions(n + 3):
        if len(hw) > n:
            assert f.weyl_dim(hw) == 0, hw
    with pytest.raises(ValueError, match="partition"):
        f.weyl_dim((1, 2))


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
