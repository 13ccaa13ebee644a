#!/usr/bin/env python3
"""Gibbs overshoot and the maximal partial-sum ratio for the square wave.

Prints the near-jump maximum of s* for growing M and the ratio
|s*|_p / (p^4 |f|_p / (p-1)^2) over a p-sweep, which should neither grow
with M nor with p.

Usage:
    python scripts/fourier_maximal.py [--k 4096] [--m-list 16 32 64 128]
"""

import argparse
import math
import sys

sys.path.insert(0, "src")

import numpy as np

from bgl.fourier import maximal_partial_sums, maximal_ratio_check, square_wave_sample
from bgl.psi import PGrid, constant

GIBBS = 1.178979744471914


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--k", type=int, default=4096)
    ap.add_argument("--m-list", type=int, nargs="+", default=[16, 32, 64, 128])
    args = ap.parse_args()

    sample = square_wave_sample(args.k)
    stars = maximal_partial_sums(sample, args.m_list)
    print(f"limit overshoot (2/pi) Si(pi) = {GIBBS:.6f}")
    for m in args.m_list:
        window = (sample.x > 0) & (sample.x <= 4.0 * math.pi / m)
        peak = float(np.max(stars[m].values[window]))
        print(f"M = {m:4d}: near-jump max of s* = {peak:.6f} "
              f"(excess {peak - GIBBS:+.2e})")

    grid = PGrid.log_spaced(1.1, 32.0, 12)
    rep = maximal_ratio_check(sample, constant(), grid, args.m_list)
    print("\np-sweep of rho(p, M) = |s*|_p / (p^4 |f|_p / (p-1)^2):")
    header = "     p | " + " ".join(f"M={m:<6d}" for m in args.m_list)
    print(header)
    for p, row in rep.rho:
        print(f"{p:6.2f} | " + " ".join(f"{r:8.5f}" for _, r in row))
    print(f"\nsaturation check: {'PASS' if rep.passed else 'FAIL'}; "
          f"norm ratio ||s*||/(weighted ||f||) = {rep.norm_ratio:.4f}")


if __name__ == "__main__":
    main()
