"""Semi-metrics on index sets, covering numbers, entropy, and dimension.

Covering numbers N(T, d, eps) count closed eps-balls centered at points of T
needed to cover T.  The exact mode solves the induced minimum set cover by
branch and bound (greedy upper bound, packing lower bound) and is guaranteed
optimal; it is capped at m <= 24 points so the worst case stays fast.  The
greedy mode is deterministic (ties break on the lowest index), never smaller
than the optimum, and within a factor 1 + ln m of it.

The solvers see a metric only through `size`, `n_distinct()` and
`balls(eps)`, the boolean matrix of d <= eps.  They read ball j as row j of
that matrix and take the balls holding point j to be the centers in ball j.
That relies on `SemiMetric` rejecting any distance matrix that is not exactly
symmetric; a `SupProductMetric`'s ball matrix is the Kronecker product of its
factors', so it is symmetric because theirs are, and it never holds the
product's distance matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError, SizeError
from .measure import FunctionFamily
from .norms import grid_sups
from .psi import PGrid, PsiFunction

__all__ = [
    "SemiMetric",
    "SupProductMetric",
    "CoverLevel",
    "CoveringProfile",
    "family_semimetric",
    "covering_number",
    "covering_with_centers",
    "covering_profile",
    "entropy_dimension",
    "EXACT_COVER_LIMIT",
]

EXACT_COVER_LIMIT = 24

# side of the square tiles the exact-symmetry check compares; a tile pair
# stays in cache, where comparing d with its strided transpose does not
_SYMMETRY_TILE = 64


def _exactly_symmetric(d: np.ndarray) -> bool:
    """d == d.T cell for cell (NaN never equals itself), compared tile
    d[i:i+t, j:j+t] against the transposed tile d[j:j+t, i:i+t] for j >= i."""
    t = _SYMMETRY_TILE
    n = d.shape[0]
    for i in range(0, n, t):
        for j in range(i, n, t):
            if not np.array_equal(d[i:i + t, j:j + t], d[j:j + t, i:i + t].T):
                return False
    return True


@dataclass(frozen=True)
class SemiMetric:
    """Symmetric nonnegative matrix with zero diagonal and the triangle
    inequality (checked to 1e-9 max(1, diameter) on construction; a
    violation signals a bug in the norm that produced the distances)."""

    d: np.ndarray
    trusted: bool = False  # metrics exact by construction may skip the O(m^3) check

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        object.__setattr__(self, "d", d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise DomainError("distance matrix must be square")
        if not _exactly_symmetric(d):
            raise DomainError("distance matrix must be exactly symmetric")
        if np.any(np.diag(d) != 0.0):
            raise DomainError("diagonal must be exactly zero")
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise DomainError("distances must be finite and nonnegative")
        if not self.trusted:
            slack = 1e-9 * max(1.0, float(d.max(initial=0.0)))
            for j in range(d.shape[0]):
                if np.max(d - (d[:, j][:, None] + d[j, :][None, :])) > slack:
                    raise DomainError(f"triangle inequality violated through point {j}")

    @property
    def size(self) -> int:
        return int(self.d.shape[0])

    @property
    def diameter(self) -> float:
        return float(self.d.max())

    def n_distinct(self) -> int:
        """Number of zero-distance equivalence classes."""
        m = self.size
        seen = np.zeros(m, dtype=bool)
        count = 0
        for i in range(m):
            if not seen[i]:
                seen[self.d[i] == 0.0] = True
                count += 1
        return count

    def balls(self, eps: float) -> np.ndarray:
        """Boolean matrix of d <= eps: row j is the closed eps-ball about j."""
        return self.d <= eps

    @staticmethod
    def from_points(points) -> "SemiMetric":
        """Euclidean distances of a point cloud, one point per row (a 1-d
        array is points on a line); the triangle inequality holds by
        construction, so the exhaustive check is skipped."""
        x = np.asarray(points, dtype=float)
        x = x.reshape(len(x), -1)
        # x_i - x_j is exactly -(x_j - x_i), so d is exactly symmetric with
        # a zero diagonal (both still checked on construction)
        diff = x[:, None, :] - x[None, :, :]
        return SemiMetric(np.sqrt(np.sum(diff * diff, axis=2)), trusted=True)

    def scaled(self, c: float) -> "SemiMetric":
        return SemiMetric(self.d * float(c), trusted=True)


@dataclass(frozen=True)
class SupProductMetric:
    """The product of metrics under the max metric, held as its factors.

    Point (i_1, ..., i_r) is row i_1 s_2...s_r + ... + i_r, each i_k indexing
    factor k of size s_k.  A point lies in the eps-ball about another exactly
    when each coordinate lies in its factor's eps-ball, so the ball matrix is
    the Kronecker product of the factors' ball matrices.
    """

    factors: tuple

    @property
    def size(self) -> int:
        return math.prod(f.size for f in self.factors)

    def n_distinct(self) -> int:
        """Zero-distance classes of the product are products of the factors'."""
        return math.prod(f.n_distinct() for f in self.factors)

    def balls(self, eps: float) -> np.ndarray:
        within = self.factors[0].balls(eps)
        for f in self.factors[1:]:
            b = f.balls(eps)
            within = (within[:, None, :, None] & b[None, :, None, :]).reshape(
                within.shape[0] * b.shape[0], -1)
        return within


def family_semimetric(family: FunctionFamily, p: float | None = None,
                      psi: PsiFunction | None = None, grid: PGrid | None = None) -> SemiMetric:
    """Pairwise distances |Y(t) - Y(s)|_p or ||Y(t) - Y(s)||_{G(psi)}.

    The grand Lebesgue variant evaluates member and difference norms on the
    same grid without refinement, which keeps d <= 2 sigma and the triangle
    inequality exact up to rounding; a diameter above 2 sigma (beyond
    rounding) raises.

    `grid_sups` takes the member norms, then row t of the matrix, the pairs
    Y(t) - Y(s), s > t, one row at a time.  The p= variant is one column.
    """
    if (p is None) == (psi is None):
        raise DomainError("pass exactly one of p= or psi=/grid=")
    if p is not None:
        pts = np.array([p], dtype=float)
        scale = np.ones(1)
    else:
        if grid is None:
            raise DomainError("the grand Lebesgue variant needs a grid")
        pts = grid.points
        scale = psi(pts)
    values = family.values
    m = family.m
    blocks = itertools.chain([values], (values[i] - values[i + 1:] for i in range(m - 1)))
    norms, *rows = grid_sups(blocks, family.space.weights, pts, scale)
    d = np.zeros((m, m))
    for i, row in enumerate(rows):
        d[i, i + 1:] = row
    d += d.T
    metric = SemiMetric(d)
    sigma = float(norms.max())
    if metric.diameter > 2.0 * sigma * (1.0 + 1e-9) + 1e-15:
        raise DomainError(
            f"distance {metric.diameter} exceeds 2*sigma = {2 * sigma}"
        )
    return metric


# ---------------------------------------------------------------------------
# covering numbers


def _ball_masks(metric: SemiMetric | SupProductMetric, eps: float) -> list[int]:
    bits = np.packbits(metric.balls(eps), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in bits]


def _greedy_cover(masks: list[int], full: int) -> tuple[int, list[int]]:
    """Greedy on integer ball masks; seeds the exact solver's upper bound.

    It returns the same (count, centers) as `_greedy_cover_dense` (tested),
    but on the masks the exact solver already holds it is about 4x cheaper:
    median 17-22 us against 75-78 us, next to a median exact cover of
    0.11-0.17 ms (900 plane metrics with m = 20..24 at radii 0.15, 0.25 and
    0.35 of the diameter, best of 5 calls each, Python 3.11 on a 2-core x86
    VM).  Seeding from the dense greedy would make the exact cover about
    1.4x slower, so both stay.
    """
    covered = 0
    centers = []
    while covered != full:
        best_j, best_gain = -1, -1
        for j, mask in enumerate(masks):
            gain = (mask & ~covered).bit_count()
            if gain > best_gain:
                best_j, best_gain = j, gain
        if best_gain <= 0:
            raise DomainError("greedy cover stalled; balls do not cover the set")
        covered |= masks[best_j]
        centers.append(best_j)
    return len(centers), centers


def _greedy_cover_dense(within: np.ndarray) -> tuple[int, list[int]]:
    """Incremental greedy on the boolean ball matrix; O(m^2) per level total.
    Ball j is read as the row within[j] (symmetry).  Ties break on the lowest
    index (np.argmax picks the first maximum)."""
    uncovered = np.ones(within.shape[0], dtype=bool)
    left = within.shape[0]
    gains = within.sum(axis=1)
    centers = []
    while left:
        j = int(np.argmax(gains))
        if gains[j] <= 0:
            raise DomainError("greedy cover stalled; balls do not cover the set")
        if gains[j] == 1:
            # no ball holds two uncovered points, so the rest of the greedy
            # takes the lowest ball holding each one, in increasing order
            centers += sorted(np.argmax(within, axis=1)[uncovered].tolist())
            break
        newly = np.flatnonzero(within[j] & uncovered)
        centers.append(j)
        left -= newly.size
        if left:
            uncovered[newly] = False
            gains -= within[newly].sum(axis=0)
    return len(centers), centers


def _ball_tables(masks: list[int]) -> tuple[list[list[int]], list[int]]:
    """Per point i: the centers of the balls holding i, lowest first, and the
    points sharing a ball with i.  Ball i holds j exactly when ball j holds i
    (symmetry), so the centers are the bits of masks[i]."""
    opts_of = [[j for j, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"] for mask in masks]
    blocked = []
    for opts in opts_of:
        union = 0
        for j in opts:
            union |= masks[j]
        blocked.append(union)
    return opts_of, blocked


def _packing_lower_bound(blocked: list[int], uncovered: int) -> int:
    """Greedy packing of points no ball covers in pairs: each needs its own ball."""
    count = 0
    while uncovered:
        i = (uncovered & -uncovered).bit_length() - 1
        count += 1
        uncovered &= ~blocked[i]
    return count


def _exact_cover(masks: list[int], m: int) -> tuple[int, list[int]]:
    full = (1 << m) - 1
    best_size, best_centers = _greedy_cover(masks, full)
    max_ball = max(x.bit_count() for x in masks)
    opts_of, blocked = _ball_tables(masks)
    # branch on the uncovered point in the fewest balls, the lowest such index
    branch_order = sorted(range(m), key=lambda i: len(opts_of[i]))

    def dfs(covered: int, chosen: list[int]):
        nonlocal best_size, best_centers
        if covered == full:
            if len(chosen) < best_size:
                best_size, best_centers = len(chosen), list(chosen)
            return
        uncovered = full & ~covered
        lb = max(-(-uncovered.bit_count() // max_ball), _packing_lower_bound(blocked, uncovered))
        if len(chosen) + lb >= best_size:
            return
        best_i = next(i for i in branch_order if uncovered >> i & 1)
        opts = sorted(opts_of[best_i], key=lambda j: -(masks[j] & uncovered).bit_count())
        for j in opts:
            chosen.append(j)
            dfs(covered | masks[j], chosen)
            chosen.pop()

    dfs(0, [])
    return best_size, best_centers


def covering_with_centers(metric: SemiMetric | SupProductMetric, eps: float,
                          mode: str = "exact") -> tuple[int, list[int]]:
    if not eps > 0:
        raise DomainError("eps must be positive")
    m = metric.size
    if mode == "exact":
        if m > EXACT_COVER_LIMIT:
            raise SizeError(
                f"exact covering is limited to m <= {EXACT_COVER_LIMIT}; use mode='greedy'"
            )
        return _exact_cover(_ball_masks(metric, eps), m)
    if mode == "greedy":
        return _greedy_cover_dense(metric.balls(eps))
    raise DomainError(f"unknown covering mode {mode!r}")


def covering_number(metric: SemiMetric, eps: float) -> int:
    return covering_with_centers(metric, eps)[0]


@dataclass(frozen=True)
class CoverLevel:
    k: int
    eps: float
    n_balls: int
    entropy: float
    centers: tuple


@dataclass(frozen=True)
class CoveringProfile:
    theta: float
    levels: tuple
    n_points: int
    exact: bool
    saturated: bool  # the last level's N reached the number of distinct points


def check_theta(theta: float) -> None:
    """The level ratio of a chaining sum: radii theta^k shrink only for theta in (0, 1)."""
    if not (0.0 < theta < 1.0):
        raise DomainError("theta must lie in (0, 1)")


def covering_profile(metric: SemiMetric | SupProductMetric, theta: float, k_max: int,
                     mode: str | None = None) -> CoveringProfile:
    """Covering numbers at eps = theta^k, k = 1..k_max, stopping once the
    levels saturate (singleton balls: N equals the number of distinct points).
    Centers are recorded per level as the cover's evidence."""
    check_theta(theta)
    if k_max < 1:
        raise DomainError(f"k_max = {k_max} must be at least 1")
    m = metric.size
    if mode is None:
        mode = "exact" if m <= EXACT_COVER_LIMIT else "greedy"
    n_distinct = metric.n_distinct()
    levels = []
    for k in range(1, k_max + 1):
        eps = theta ** k
        n, centers = covering_with_centers(metric, eps, mode=mode)
        levels.append(CoverLevel(k=k, eps=eps, n_balls=n, entropy=math.log(n),
                                 centers=tuple(centers)))
        saturated = n >= n_distinct
        if saturated:
            break
    return CoveringProfile(theta=theta, levels=tuple(levels), n_points=m,
                           exact=(mode == "exact"), saturated=saturated)


def entropy_dimension(profile: CoveringProfile, fit_range=None) -> float:
    """Least-squares slope of H against |log eps| over informative levels
    (those with 1 < N < n_points), restricted to k in fit_range if given."""
    pts = []
    for lv in profile.levels:
        if lv.n_balls <= 1 or lv.n_balls >= profile.n_points:
            continue
        if fit_range is not None and not (fit_range[0] <= lv.k <= fit_range[1]):
            continue
        pts.append((abs(math.log(lv.eps)), lv.entropy))
    if len(pts) < 3:
        raise EstimationError(
            f"need >= 3 informative levels to fit a dimension, have {len(pts)}"
        )
    x, y = np.array(pts).T
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)
