#!/usr/bin/env python3
"""Scan the projected-curvature bounds over boost magnitude for one case.

Shows how both right-hand sides grow with the boost of the direction and
where the sampled infimum lands relative to the eigenvalue.

Usage: python scripts/direction_scan.py [--case counterexample] [--level 4]
"""

import argparse

import numpy as np

from lorentzlab.bounds import BoundEngine
from lorentzlab.minkowski import boost_direction
from lorentzlab.pipeline import RunConfig, _build_case, _build_mesh


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--case", default="counterexample")
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--level", type=int, default=4)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    imm, _, _ = _build_case(RunConfig(case=args.case, n=args.n, level=args.level))
    engine = BoundEngine(_build_mesh(imm.n, args.level), imm)
    print(f"case={args.case} level={args.level} lambda1={engine.lambda1:.8f}")

    u = np.zeros(imm.m - 1)
    u[0] = 1.0
    boosts = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)
    catalogue = engine.direction_catalogue([boost_direction(s, u) for s in boosts])
    print(f"{'boost s':>8s} {'rhs(sharp)':>12s} {'rhs(plain)':>12s} {'eq verdict':>14s}")
    for s, sharp, plain, verdict in zip(
        boosts, catalogue.sharp.rhs, catalogue.plain.rhs, catalogue.equality["verdict"]
    ):
        print(f"{s:8.2f} {sharp:12.6f} {plain:12.6f} {verdict:>14s}")

    inf = engine.infimum_over_directions(args.samples, seed=args.seed)
    print(
        f"infimum over {args.samples} sampled directions: rhs={inf.rhs:.6f} "
        f"boost={inf.meta['boost']:.3f} holds={inf.holds}"
    )


if __name__ == "__main__":
    main()
