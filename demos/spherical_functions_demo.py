"""Spherical functions three ways: closed forms, orbit Monte Carlo, and
the defining functional equation.

Usage: python3 demos/spherical_functions_demo.py [--samples 50000]
"""

import argparse

import numpy as np

from nilharm import build_case
from nilharm.algebra import sample_k_actions
from nilharm.numerics import as_rng
from nilharm.spherical import (
    canonical_polynomials,
    functional_equation_residual,
    phi,
    phi_caseI_closed,
    phi_orbit,
    spherical_index,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=50000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = as_rng(args.seed)

    print("case I, n = 1: closed form vs orbit Monte Carlo")
    alg = build_case("I", n=1)
    x = rng.standard_normal(3)
    x *= 1.2 / np.linalg.norm(x)
    print(f"{'j':>2} {'|z|':>6} {'|v|':>6} {'closed':>12} {'orbit MC':>12} {'sigma':>8}")
    for j in range(3):
        idx = spherical_index(alg, x, j)
        z = rng.standard_normal(3) * 0.5
        v = rng.standard_normal(4) * 0.7
        mc = phi_orbit(idx, z, v, samples=args.samples, seed=args.seed + j)
        ref = phi_caseI_closed(idx.lam, j, z, v)
        nsig = abs(mc.value - ref) / mc.stderr
        print(f"{j:>2} {np.linalg.norm(z):>6.3f} {np.linalg.norm(v):>6.3f} "
              f"{np.real(ref):>12.6f} {np.real(mc.value):>12.6f} {nsig:>8.2f}")
    print()

    print("case VII, n = 2: functional equation avg_k phi(x (k y)) = phi(x) phi(y)")
    alg7 = build_case("VII", n=2)
    idx7 = spherical_index(alg7, [0.9], 1)
    ks = sample_k_actions(alg7, as_rng(args.seed + 100), count=3000)

    def at(p):
        return phi(idx7, *p).value

    for trial in range(3):
        xp = (rng.standard_normal(1) * 0.3, rng.standard_normal(4) * 0.6)
        yp = (rng.standard_normal(1) * 0.3, rng.standard_normal(4) * 0.6)
        rep = functional_equation_residual(at, alg7, xp, yp, ks)
        print(f"pair {trial}: residual {rep.residual:.2e} vs MC stderr {rep.stderr:.2e}")
    print()

    print("case VII Gram-Schmidt: q_j recovers the normalized Laguerre L_j^(n-1)(s/2)")
    for n in (1, 3):
        qs = canonical_polynomials("VII", {"n": n}, 3, lam=1.0)
        for q in qs[1:]:
            terms = " ".join(f"{c:+.5f} s^{e[0]}" for e, c in q.coeffs)
            print(f"n = {n}, j = {q.leading[0]}: q = {terms}")


if __name__ == "__main__":
    main()
