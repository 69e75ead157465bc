"""Plancherel density along a chamber ray for cases with a nonabelian
compact factor: the Pfaffian and the Weyl-chamber Jacobian theta are
reported separately.

Usage: python3 demos/density_profile_demo.py [--points 8]
"""

import argparse

import numpy as np

from nilharm import Functional, build_case, density_of


def ray_table(alg, base, points):
    print(f"case {alg.spec.case} {alg.spec.params}, ray through a regular functional")
    print(f"{'s':>6} {'pfaffian':>12} {'theta':>12} {'density':>12}")
    for k in range(1, points + 1):
        s = k / points
        d = density_of(alg, s * base)
        print(f"{s:>6.3f} {d.pfaffian:>12.5g} {d.theta:>12.5g} {d.value:>12.5g}")
    angles, zc, _ = Functional(alg, base).chamber
    print(f"chamber angles at s = 1: {np.round(np.concatenate(angles), 4)}, central part {np.round(zc, 4)}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=8)
    args = ap.parse_args()

    # case V: density is a product of torus weights times the squared
    # Vandermonde of the su(3) angles; both scale polynomially in s
    algV = build_case("V", n=3)
    baseV = algV.join_center(algV.ops.embed_angles((np.array([1.0, 0.2, -1.2]),)), np.zeros(0))
    ray_table(algV, baseV, args.points)

    # case I: pfaffian r^2 and theta 4 r^2 give the r^4 weight of the
    # inversion formula
    algI = build_case("I", n=1)
    baseI = np.array([0.8, -0.4, 0.7])
    ray_table(algI, baseI, args.points)

    # case IX mixes su(3) angles with a central coordinate
    algIX = build_case("IX", n=3)
    baseIX = algIX.join_center(
        algIX.ops.embed_angles((np.array([0.9, 0.1, -1.0]),)), np.array([0.7]))
    ray_table(algIX, baseIX, args.points)


if __name__ == "__main__":
    main()
