"""Seeded generators for families, metrics, and samples.

All randomness flows from one explicit 64-bit seed through a counter-based
Philox generator, so fixtures are reproducible across platforms and any
single case can be regenerated from the (seed, index) pair recorded in a
report.
"""

from __future__ import annotations

import numpy as np

from .entropy import SemiMetric, SupProductMetric
from .measure import DiscreteMeasureSpace, FunctionFamily

__all__ = [
    "make_rng",
    "random_nonneg_family",
    "disjoint_indicator_family",
    "random_plane_metric",
    "circle_lattice_metric",
    "torus_lattice_metric",
    "random_trig_coeffs",
]


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & (2 ** 64 - 1)))


def random_nonneg_family(rng: np.random.Generator, m: int, n_atoms: int = 48) -> FunctionFamily:
    """m nonnegative members with O(1) values and O(1) mutual distances, on
    atom weights of total mass about 1 bounded away from zero."""
    space = DiscreteMeasureSpace(rng.uniform(0.5, 1.5, size=n_atoms) / n_atoms)
    return FunctionFamily(space, rng.uniform(0.0, 1.0, size=(m, n_atoms)))


def disjoint_indicator_family(m: int) -> FunctionFamily:
    """m indicators of disjoint unit-weight atoms, each of unit L_p norm: the
    equality case of the finite maximal inequality."""
    space = DiscreteMeasureSpace(np.ones(m))
    return FunctionFamily(space, np.eye(m))


def random_plane_metric(rng: np.random.Generator, m: int, grid_snap: int = 64) -> SemiMetric:
    """Euclidean metric of m random points snapped to a coarse lattice, so
    scale tests stay clear of floating-point boundary flips."""
    pts = rng.integers(0, grid_snap + 1, size=(m, 2)) / grid_snap
    return SemiMetric.from_points(pts)


def circle_lattice_metric(j: int) -> SemiMetric:
    """2^j cell-centered points on [0,1] with wraparound distance.

    The periodic metric removes the boundary bias of the centered-ball
    covering estimator, and the dyadic alignment makes the covering numbers
    double exactly per halved radius over the mid-range levels.
    """
    s = 2 ** j
    x = (np.arange(s) + 0.5) / s
    diff = np.abs(x[:, None] - x[None, :])
    d = np.minimum(diff, 1.0 - diff)
    np.fill_diagonal(d, 0.0)
    return SemiMetric(d, trusted=True)


def torus_lattice_metric(j: int) -> SupProductMetric:
    """2^j x 2^j cell-centered lattice on [0,1]^2 under the periodic sup
    metric; the 2-d analogue of circle_lattice_metric (covering numbers
    quadruple per halved radius over the aligned levels).  Point (a, b) is
    row a 2^j + b; the product of two circles never builds its 4^j x 4^j
    distance matrix."""
    circle = circle_lattice_metric(j)
    return SupProductMetric((circle, circle))


def random_trig_coeffs(rng: np.random.Generator, degree: int):
    """Cosine and sine coefficient arrays for a random trigonometric polynomial."""
    a = rng.normal(0.0, 1.0, size=degree + 1) / np.arange(1, degree + 2)
    b = rng.normal(0.0, 1.0, size=degree + 1) / np.arange(1, degree + 2)
    b[0] = 0.0
    return a, b
