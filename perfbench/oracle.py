"""High-precision oracle panel for the L_p kernel ``norms.lp_norm_matrix``.

Runs outside the timed region.  The panel is fixed (it does not depend on
the workload seed) and covers exponents up to p = 200, values from 1e-300 to
1e300 within one row, zero rows and a single atom.  It is a check at a fixed
tolerance: the benchmark reports the measured error, and any row over the
tolerance makes the run incorrect.
"""

from __future__ import annotations

import mpmath
import numpy as np

TOLERANCE = 1e-13
PS = np.array([1.0, 1.5, 2.0, 3.7, 10.0, 50.0, 120.0, 200.0])


def _panel():
    rng = np.random.default_rng(20240801)
    n = 24
    weights = rng.uniform(0.5, 1.5, size=n) / n
    rows = [
        rng.uniform(0.0, 1.0, size=n),
        10.0 ** rng.uniform(-300.0, 300.0, size=n),
        -(10.0 ** rng.uniform(-300.0, -200.0, size=n)),
        10.0 ** rng.uniform(200.0, 300.0, size=n),
        np.zeros(n),
        np.where(np.arange(n) == 7, 3.0e-250, 0.0),
        np.where(np.arange(n) % 3 == 0, 1e300, 1e-300),
    ]
    yield np.array(rows), weights
    yield np.array([[2.5], [0.0], [1e-300], [1e300]]), np.array([0.125])


def _exact(row, weights, p) -> mpmath.mpf:
    total = mpmath.fsum(mpmath.mpf(w) * abs(mpmath.mpf(v)) ** p
                        for v, w in zip(row, weights))
    return total ** (1 / mpmath.mpf(p)) if total else mpmath.mpf(0)


def run_panel(lp_norm_matrix) -> tuple[float, int, int]:
    """(largest relative error, rows x p checked, rows x p over tolerance)."""
    worst = 0.0
    checked = failed = 0
    with mpmath.workdps(60):
        for values, weights in _panel():
            got = lp_norm_matrix(values, weights, PS)
            for i, row in enumerate(values):
                for j, p in enumerate(PS):
                    exact = _exact(row, weights, mpmath.mpf(float(p)))
                    if exact == 0:
                        err = 0.0 if got[i, j] == 0.0 else float("inf")
                    else:
                        err = float(abs(mpmath.mpf(float(got[i, j])) - exact) / exact)
                    worst = max(worst, err)
                    checked += 1
                    failed += not err <= TOLERANCE
    return worst, checked, failed
