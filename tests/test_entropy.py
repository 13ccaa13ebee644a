import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgl.entropy import (
    EXACT_COVER_LIMIT,
    SemiMetric,
    _ball_masks,
    _ball_tables,
    _greedy_cover,
    _greedy_cover_dense,
    _packing_lower_bound,
    covering_number,
    covering_profile,
    covering_with_centers,
    entropy_dimension,
    family_semimetric,
)
from bgl.errors import DomainError, EstimationError, SizeError
from bgl.fixtures import (
    circle_lattice_metric,
    make_rng,
    random_nonneg_family,
    random_plane_metric,
    torus_lattice_metric,
    unit_interval_metric,
    unit_square_metric,
)
from bgl.measure import DiscreteMeasureSpace, FunctionFamily, SimpleFunction
from bgl.norms import lp_norm, natural_psi
from bgl.psi import PGrid, constant, power


def brute_force_cover(metric, eps, subset=None):
    """Exhaustive minimum number of eps-balls centered in T that cover the
    points of the bitmask ``subset`` (default: all of T).  Ball c is read as
    column c.  The search is exponential in the answer, so callers keep the
    answer small (m <= 12, or radii of at least 0.15 of the diameter)."""
    m = metric.size
    within = metric.d <= eps
    balls = [sum(1 << i for i in range(m) if within[i, c]) for c in range(m)]
    target = (1 << m) - 1 if subset is None else subset
    for k in range(m + 1):
        for centers in itertools.combinations(range(m), k):
            covered = 0
            for c in centers:
                covered |= balls[c]
            if covered & target == target:
                return k
    return m


def reference_greedy(metric, eps):
    """Plain greedy cover, written independently of the library internals."""
    m = metric.size
    within = metric.d <= eps
    covered = np.zeros(m, dtype=bool)
    count = 0
    while not covered.all():
        gains = within[~covered].sum(axis=0)
        j = int(np.argmax(gains))
        covered |= within[:, j]
        count += 1
    return count


class TestSemiMetric:
    def test_rejects_asymmetry(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(DomainError):
            SemiMetric(d)

    # a 130-point metric has 64-wide tiles at 0, 64 and a ragged 2-wide
    # tile at 128; one perturbed cell in the upper or lower triangle of a
    # diagonal tile, an off-diagonal tile, or the ragged last tile must fail
    @pytest.mark.parametrize("cell", [(3, 10), (10, 3), (5, 100), (100, 5),
                                      (128, 129), (129, 128), (2, 129), (129, 2)])
    @pytest.mark.parametrize("trusted", [False, True])
    def test_tiled_symmetry_check_finds_one_asymmetric_cell(self, cell, trusted):
        d = unit_interval_metric(130).d.copy()
        SemiMetric(d, trusted=trusted)
        d[cell] += 1e-3
        with pytest.raises(DomainError, match="symmetric"):
            SemiMetric(d, trusted=trusted)

    @pytest.mark.parametrize("cell", [(7, 7), (5, 100), (129, 2)])
    def test_nan_cell_rejected(self, cell):
        d = unit_interval_metric(130).d.copy()
        d[cell] = np.nan
        with pytest.raises(DomainError):
            SemiMetric(d, trusted=True)

    def test_rejects_triangle_violation(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(DomainError):
            SemiMetric(d)

    def test_identical_functions_zero_matrix(self):
        space = DiscreteMeasureSpace(np.ones(4))
        fam = FunctionFamily.from_values(space, np.tile(np.arange(4.0), (3, 1)))
        metric = family_semimetric(fam, p=2.0)
        assert np.all(metric.d == 0.0) and metric.n_distinct() == 1

    def test_disjoint_indicators_distance(self):
        space = DiscreteMeasureSpace(np.ones(2))
        fam = FunctionFamily.from_values(space, np.eye(2))
        metric = family_semimetric(fam, p=2.0)
        assert metric.d[0, 1] == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_natural_distances_bounded_by_two_sigma(self):
        rng = make_rng(12)
        fam = random_nonneg_family(rng, 10, 32)
        grid = PGrid.log_spaced(1.05, 40, 48)
        psi0 = natural_psi(fam, grid)
        metric = family_semimetric(fam, psi=psi0, grid=grid)
        assert metric.diameter <= 2.0 + 1e-9


class TestFamilySemimetricCells:
    """Every cell of d_p and d_psi is the norm of one difference, computed
    on its own."""

    @staticmethod
    def signed_family():
        base = random_nonneg_family(make_rng(23), 11, 40)
        return FunctionFamily.from_values(base.space, base.values_matrix() - 0.5)

    @staticmethod
    def diff(fam, i, j):
        values = fam.values_matrix()
        return SimpleFunction(fam.space, values[i] - values[j])

    @pytest.mark.parametrize("p", [1.0, 2.5, 9.0])
    def test_dp_cells_are_single_norms(self, p):
        fam = self.signed_family()
        d = family_semimetric(fam, p=p).d
        for i, j in itertools.product(range(fam.m), repeat=2):
            assert d[i, j] == lp_norm(self.diff(fam, i, j), p), (i, j)

    def test_dpsi_cells_are_grid_maxima(self):
        fam = self.signed_family()
        grid = PGrid.log_spaced(1.05, 60, 32)
        for psi in (power(0.5), natural_psi(fam, grid)):
            d = family_semimetric(fam, psi=psi, grid=grid).d
            scale = psi.eval(grid.points)
            for i, j in itertools.product(range(fam.m), repeat=2):
                cell = np.max(lp_norm(self.diff(fam, i, j), grid.points) / scale)
                assert d[i, j] == cell, (psi.label, i, j)

    def test_peak_memory_holds_no_pair_tensor(self):
        # 4,560 pairs x 64 p x 256 atoms: 570 MiB as one power tensor
        fam = random_nonneg_family(make_rng(24), 96, 256)
        grid = PGrid.log_spaced(1.05, 200, 64)
        tracemalloc.start()
        try:
            family_semimetric(fam, psi=constant(), grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20, peak


class TestCoveringNumber:
    def test_three_collinear_points(self):
        metric = SemiMetric.from_points(np.array([[0.0], [1.0], [2.0]]))
        assert covering_number(metric, 0.5) == 3
        assert covering_number(metric, 1.0) == 1

    def test_exact_matches_brute_force(self):
        rng = make_rng(100)
        for trial in range(25):
            m = int(rng.integers(3, 13))
            metric = random_plane_metric(rng, m)
            eps = float(rng.uniform(0.05, 1.0)) * max(metric.diameter, 0.1)
            assert covering_number(metric, eps) == brute_force_cover(metric, eps)

    def test_exact_matches_brute_force_beyond_twelve(self):
        # m = 13..16 at radii that keep the optimum small; half the metrics
        # repeat some of their points, so balls hold zero-distance twins
        rng = make_rng(103)
        for trial in range(24):
            m = int(rng.integers(13, 17))
            if trial % 2:
                n_dup = int(rng.integers(1, 6))
                pts = rng.integers(0, 65, size=(m - n_dup, 2)) / 64
                pts = np.vstack([pts, pts[rng.integers(0, m - n_dup, size=n_dup)]])
                metric = SemiMetric.from_points(pts)
                assert metric.n_distinct() < m
            else:
                metric = random_plane_metric(rng, m)
            eps = float(rng.uniform(0.15, 0.6)) * metric.diameter
            assert covering_number(metric, eps) == brute_force_cover(metric, eps)

    def test_packing_lower_bound_is_sound(self):
        # on any uncovered subset the packing bound never exceeds the least
        # number of balls (centered anywhere in T) that cover that subset
        rng = make_rng(104)
        for trial in range(40):
            m = int(rng.integers(3, 17))
            metric = random_plane_metric(rng, m, grid_snap=int(rng.choice([4, 64])))
            eps = float(rng.uniform(0.15, 0.6)) * max(metric.diameter, 0.1)
            _, blocked = _ball_tables(_ball_masks(metric, eps))
            for _ in range(10):
                subset = int(rng.integers(0, 1 << m))
                assert (_packing_lower_bound(blocked, subset)
                        <= brute_force_cover(metric, eps, subset))

    def test_greedy_never_below_exact(self):
        rng = make_rng(101)
        for trial in range(25):
            metric = random_plane_metric(rng, int(rng.integers(3, 13)))
            eps = float(rng.uniform(0.05, 0.8)) * max(metric.diameter, 0.1)
            exact = covering_number(metric, eps, "exact")
            greedy = covering_number(metric, eps, "greedy")
            assert exact <= greedy <= exact * (1 + math.log(metric.size)) + 1

    def test_greedy_usually_matches_exact(self):
        # greedy may exceed the optimum on adversarial instances; on random
        # plane metrics the excess should stay a rare event
        rng = make_rng(777)
        excess = 0
        for _ in range(200):
            metric = random_plane_metric(rng, int(rng.integers(3, 13)))
            eps = float(rng.uniform(0.05, 1.0)) * max(metric.diameter, 0.05)
            excess += (covering_number(metric, eps, "greedy")
                       > covering_number(metric, eps, "exact"))
        assert excess / 200 <= 0.1

    def test_two_greedy_covers_agree(self):
        # the integer-mask greedy seeds the exact solver and the dense one
        # serves greedy mode; both break ties on the lowest index
        rng = make_rng(202)
        for _ in range(60):
            m = int(rng.integers(3, EXACT_COVER_LIMIT + 1))
            metric = random_plane_metric(rng, m)
            for frac in (0.05, 0.15, 0.25, 0.35, 0.6):
                eps = frac * metric.diameter
                masks = _ball_masks(metric, eps)
                assert (_greedy_cover(masks, (1 << m) - 1)
                        == _greedy_cover_dense(metric.d <= eps))
        # lattices tie at every level, where the lowest-index rule decides
        metric = circle_lattice_metric(8)
        for k in range(1, 13):
            eps = 0.5 ** k
            masks = _ball_masks(metric, eps)
            assert (_greedy_cover(masks, (1 << metric.size) - 1)
                    == _greedy_cover_dense(metric.d <= eps))

    def test_size_error_beyond_exact_limit(self):
        metric = unit_interval_metric(EXACT_COVER_LIMIT + 1)
        with pytest.raises(SizeError):
            covering_number(metric, 0.1, "exact")

    def test_monotone_in_eps_and_extremes(self):
        rng = make_rng(102)
        metric = random_plane_metric(rng, 10)
        epss = np.linspace(0.01, metric.diameter * 1.01, 12)
        ns = [covering_number(metric, e) for e in epss]
        assert all(a >= b for a, b in zip(ns, ns[1:]))
        assert covering_number(metric, metric.diameter) == 1
        mp = metric.min_positive()
        assert covering_number(metric, mp * 0.999) == metric.n_distinct()

    def test_deterministic_greedy_ties(self):
        # gains tie between centers 1 and 2, then 2 and 3: lowest index wins
        metric = SemiMetric.from_points(np.array([[0.0], [1.0], [2.0], [3.0]]))
        n1, c1 = covering_with_centers(metric, 1.0, "greedy")
        n2, c2 = covering_with_centers(metric, 1.0, "greedy")
        assert (n1, c1) == (n2, c2) == (2, [1, 2])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), st.integers(3, 10), st.integers(1, 5))
def test_scaling_covariance(seed, m, k):
    # N(T, c*d, c*eps) == N(T, d, eps) exactly, for power-of-two scales
    rng = make_rng(seed)
    metric = random_plane_metric(rng, m)
    eps = 0.5 ** k
    for c in [0.25, 0.5, 2.0, 8.0]:
        assert (covering_number(metric.scaled(c), c * eps)
                == covering_number(metric, eps))


class TestRescalingInequality:
    def test_lp_balls_nest_in_bgl_balls(self):
        # d_p <= psi(p) d_psi pointwise, hence N(d_p, e) <= N(d_psi, e/psi(p))
        rng = make_rng(13)
        fam = random_nonneg_family(rng, 10, 32)
        grid = PGrid.log_spaced(1.5, 30, 24)
        psi = power(0.5)
        d_psi = family_semimetric(fam, psi=psi, grid=grid)
        for p in [grid.points[0], grid.points[10], grid.points[-1]]:
            d_p = family_semimetric(fam, p=float(p))
            for k in range(1, 5):
                eps = 0.5 ** k
                assert (covering_number(d_p, eps)
                        <= covering_number(d_psi, eps / float(psi(p))))


class TestProfile:
    def test_zero_diameter(self):
        space = DiscreteMeasureSpace(np.ones(3))
        fam = FunctionFamily.from_values(space, np.ones((4, 3)))
        metric = family_semimetric(fam, p=2.0)
        prof = covering_profile(metric, 0.5, 8)
        assert all(lv.n_balls == 1 for lv in prof.levels)

    def test_two_points_at_unit_distance(self):
        metric = SemiMetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        prof = covering_profile(metric, 0.5, 8)
        assert prof.levels[0].n_balls == 2  # eps = 0.5 < 1 already splits
        assert len(prof.levels) == 1  # saturated immediately

    def test_profile_matches_independent_greedy(self):
        metric = unit_square_metric(12)  # 144 points -> greedy mode
        prof = covering_profile(metric, 0.5, 8)
        for lv in prof.levels:
            assert lv.n_balls == reference_greedy(metric, lv.eps)

    def test_centers_cover_at_each_level(self):
        rng = make_rng(14)
        metric = random_plane_metric(rng, 14)
        prof = covering_profile(metric, 0.6, 10)
        for lv in prof.levels:
            covered = np.zeros(metric.size, dtype=bool)
            for c in lv.centers:
                covered |= metric.d[:, c] <= lv.eps
            assert covered.all()


class TestLattices:
    def test_torus_matches_meshgrid_construction(self):
        # the torus is built from its circle factor; the floats must equal
        # the per-coordinate meshgrid construction bit for bit
        for j in range(2, 6):
            s = 2 ** j
            g = (np.arange(s) + 0.5) / s
            xx, yy = np.meshgrid(g, g, indexing="ij")
            px, py = xx.ravel(), yy.ravel()
            dx = np.abs(px[:, None] - px[None, :])
            np.minimum(dx, 1.0 - dx, out=dx)
            dy = np.abs(py[:, None] - py[None, :])
            np.minimum(dy, 1.0 - dy, out=dy)
            d = np.maximum(dx, dy)
            np.fill_diagonal(d, 0.0)
            assert np.array_equal(torus_lattice_metric(j).d, d)


class TestDimension:
    def test_unit_interval_dimension_one(self):
        metric = unit_interval_metric(256)
        prof = covering_profile(metric, 0.5, 12)
        kappa = entropy_dimension(prof)
        assert abs(kappa - 1.0) <= 0.2

    def test_circle_lattice_dimension_one(self):
        prof = covering_profile(circle_lattice_metric(8), 0.5, 12)
        kappa = entropy_dimension(prof, fit_range=(2, 6))
        assert abs(kappa - 1.0) <= 0.2

    def test_square_lattice_dimension_two(self):
        prof = covering_profile(torus_lattice_metric(6), 0.5, 8)
        kappa = entropy_dimension(prof, fit_range=(2, 4))
        assert abs(kappa - 2.0) <= 0.2

    def test_equidistant_points_have_no_informative_levels(self):
        # H jumps from 0 to log m at one scale: the fit refuses, and deep
        # levels show H / |log eps| -> 0, the finite-set limit
        metric = SemiMetric((np.ones((6, 6)) - np.eye(6)) * 0.4)
        prof = covering_profile(metric, 0.5, 10)
        with pytest.raises(EstimationError):
            entropy_dimension(prof)
        deep = covering_number(metric, 0.5 ** 20)
        assert math.log(deep) / abs(math.log(0.5 ** 20)) < 0.2

    def test_fit_range_restriction(self):
        metric = unit_interval_metric(128)
        prof = covering_profile(metric, 0.5, 12)
        ks = [lv.k for lv in prof.levels if 1 < lv.n_balls < 128]
        kappa = entropy_dimension(prof, fit_range=(ks[0], ks[-1]))
        assert abs(kappa - 1.0) <= 0.25
