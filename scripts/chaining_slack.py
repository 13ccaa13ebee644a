#!/usr/bin/env python3
"""How loose is the chaining bound?  Sweep theta and family size on seeded
random families and print bound/exact slack ratios.

Usage:
    python scripts/chaining_slack.py [--seed N] [--members 4 8 16 32]
"""

import argparse
import sys

sys.path.insert(0, "src")

import numpy as np

from bgl.chaining import chained_product_bounds, optimize_theta, pisier_bound
from bgl.entropy import family_semimetric
from bgl.fixtures import make_rng, random_nonneg_family
from bgl.norms import natural_psi
from bgl.psi import PGrid, power


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--members", type=int, nargs="+", default=[4, 8, 16, 32])
    ap.add_argument("--thetas", type=float, nargs="+",
                    default=[0.2, 0.3, 0.5, 0.7, 0.9])
    args = ap.parse_args()

    rng = make_rng(args.seed)
    grid = PGrid.log_spaced(1.05, 100.0, 64)
    print(f"{'m':>4s} {'pisier(p=2)':>12s} " +
          " ".join(f"chain t={t:g}".rjust(12) for t in args.thetas) +
          f" {'best theta':>10s}")
    for m in args.members:
        fam = random_nonneg_family(rng, m, 48)
        psi0 = natural_psi(fam, grid)
        metric = family_semimetric(fam, psi=psi0, grid=grid)
        row = [f"{m:4d}", f"{pisier_bound(fam, 2.0).slack_ratio:12.3f}"]
        row += [f"{rep.slack_ratio:12.3f}" for rep in
                chained_product_bounds(fam, psi0, power(1.0), grid, args.thetas, metric=metric)]
        best = optimize_theta(fam, args.thetas, psi=psi0, nu=power(1.0), grid=grid)
        row.append(f"{best.theta_star:10.2f}")
        print(" ".join(row))


if __name__ == "__main__":
    main()
