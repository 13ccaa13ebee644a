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
    SupProductMetric,
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
)
from bgl.measure import DiscreteMeasureSpace, FunctionFamily, SimpleFunction
from bgl import norms
from bgl.norms import grid_sups, lp_norm, lp_norm_matrix, natural_psi
from bgl.psi import PGrid, constant, power, psi_doob


def unit_interval_metric(n: int) -> SemiMetric:
    x = np.linspace(0.0, 1.0, n)[:, None]
    return SemiMetric.from_points(x)


def unit_square_metric(side: int) -> SemiMetric:
    g = np.linspace(0.0, 1.0, side)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    return SemiMetric.from_points(pts)


def snapped_plane_metric(rng, m: int, snap: int) -> SemiMetric:
    """m random plane points on the 1/snap lattice; a coarse lattice makes
    zero distances between distinct indices likely."""
    return SemiMetric.from_points(rng.integers(0, snap + 1, size=(m, 2)) / snap)


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

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_planted_violation_rejected_at_any_scale(self, scale):
        # d(0, 2) exceeds d(0, 1) + d(1, 2) by 5e-9 of the diameter
        d = scale * np.array([[0.0, 1.0, 2.00000001], [1.0, 0.0, 1.0], [2.00000001, 1.0, 0.0]])
        with pytest.raises(DomainError, match="triangle"):
            SemiMetric(d)

    def test_tight_triangles_near_1e300_accepted(self):
        # on one atom every distance is |x_t - x_s| w^(1/p), so each triangle
        # through three collinear members is tight and rounds by about 1e-16
        # of the diameter, far above an absolute 1e-9 at 1e300
        rng = make_rng(5)
        grid = PGrid.log_spaced(1.05, 200.0, 40)
        for _ in range(20):
            m = int(rng.integers(3, 7))
            vals = rng.choice([-1.0, 1.0], m) * rng.uniform(1.0, 9.0, m) * 1e299
            space = DiscreteMeasureSpace(rng.uniform(1e-3, 1e3, 1))
            fam = FunctionFamily(space, vals[:, None])
            got = family_semimetric(fam, psi=constant(), grid=grid).d
            assert np.array_equal(got, full_column_semimetric(fam, constant(), grid))

    def test_identical_functions_zero_matrix(self):
        space = DiscreteMeasureSpace(np.ones(4))
        fam = FunctionFamily(space, np.tile(np.arange(4.0), (3, 1)))
        metric = family_semimetric(fam, p=2.0)
        assert np.all(metric.d == 0.0) and metric.n_distinct() == 1

    def test_disjoint_indicators_distance(self):
        space = DiscreteMeasureSpace(np.ones(2))
        fam = FunctionFamily(space, np.eye(2))
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
        return FunctionFamily(base.space, base.values - 0.5)

    @staticmethod
    def diff(fam, i, j):
        values = fam.values
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


def full_column_semimetric(fam, psi, grid):
    """d_psi with every (pair, p) cell evaluated: one kernel call per row."""
    pts = grid.points
    scale = psi.eval(pts)
    values, w = fam.values, fam.space.weights
    d = np.zeros((fam.m, fam.m))
    for i in range(fam.m - 1):
        d[i, i + 1:] = (lp_norm_matrix(values[i] - values[i + 1:], w, pts) / scale).max(axis=1)
    return d + d.T


def trig_family(m, atoms=256, seed=11, degree=32):
    """Y(t, x) = sum_k k^(-1.5) (g_k(x) cos 2 pi k t + h_k(x) sin 2 pi k t) on
    the m-point circle lattice, g and h standard normal on uniform atoms."""
    rng = make_rng(seed)
    g, h = rng.standard_normal((2, degree, atoms))
    k = np.arange(1, degree + 1)
    phase = 2.0 * np.pi * np.outer(np.arange(m) / m, k)
    values = (np.cos(phase) * k ** -1.5) @ g + (np.sin(phase) * k ** -1.5) @ h
    return FunctionFamily(DiscreteMeasureSpace(np.full(atoms, 1.0 / atoms)), values)


class TestSemimetricPruning:
    """family_semimetric evaluates only the cells whose log-convexity chord
    can reach the row max, and its d is the full-column max bit for bit."""

    GRID = PGrid.log_spaced(1.05, 200.0, 64)

    def count_cells(self, monkeypatch):
        counted = {"cells": 0}
        matrix, cells = norms.lp_norm_matrix, norms.lp_norm_cells

        def counted_matrix(values, weights, ps):
            counted["cells"] += values.shape[0] * ps.size
            return matrix(values, weights, ps)

        def counted_cells(values, weights, rows, ps):
            counted["cells"] += ps.size
            return cells(values, weights, rows, ps)

        monkeypatch.setattr(norms, "lp_norm_matrix", counted_matrix)
        monkeypatch.setattr(norms, "lp_norm_cells", counted_cells)
        return counted

    @pytest.mark.parametrize("family, share", [
        # random members peak at a coarse column of every pair; the
        # structured family's pairs need a good share of the fine columns
        (random_nonneg_family(make_rng(61), 48, 256), (5 / 64, 5 / 64)),
        (trig_family(64), (0.4, 0.5)),
    ], ids=["random", "trig"])
    def test_equals_full_columns(self, family, share, monkeypatch):
        psi0 = natural_psi(family, self.GRID)
        want = full_column_semimetric(family, psi0, self.GRID)
        counted = self.count_cells(monkeypatch)
        got = family_semimetric(family, psi=psi0, grid=self.GRID).d
        assert np.array_equal(got, want)
        # the m member rows for sigma are pruned too; their cells, counted
        # alone, leave the pair rows' share
        total, counted["cells"] = counted["cells"], 0
        pts = self.GRID.points
        grid_sups([family.values], family.space.weights, pts, psi0.eval(pts))
        m = family.m
        assert counted["cells"] < m * 64
        evaluated = (total - counted["cells"]) / (m * (m - 1) // 2 * 64)
        assert share[0] <= evaluated <= share[1], evaluated

    @pytest.mark.parametrize("x", [1e-310, 3e-318, 1e-320])
    @pytest.mark.parametrize("w", [0.5, 1e-3])
    def test_subnormal_norms_prune_nothing(self, x, w):
        # on one atom every log-norm is linear in 1/p, so the chord is tight,
        # and below the smallest normal float the rounding of a norm is far
        # above the 1e-12 margin: such chords must keep every cell
        space = DiscreteMeasureSpace(np.array([w]))
        fam = FunctionFamily(space, np.array([[0.0], [x], [3 * x], [7 * x]]))
        psi0 = natural_psi(fam, self.GRID)
        got = family_semimetric(fam, psi=psi0, grid=self.GRID).d
        assert np.array_equal(got, full_column_semimetric(fam, psi0, self.GRID))


class TestGridSups:
    """grid_sups gives each row block's full-table max over the points bit
    for bit, whatever the point count and wherever the last point falls."""

    @staticmethod
    def full(rows, w, pts, scale):
        return (lp_norm_matrix(rows, w, pts) / scale).max(axis=1)

    @staticmethod
    def family(kind):
        if kind == "random":
            return random_nonneg_family(make_rng(62), 24, 256)
        if kind == "trig":
            return trig_family(32)
        # a zero row, rows with norms below the smallest normal float, and
        # rows just above it
        values = np.zeros((8, 4))
        values[1, 0], values[2, :2], values[3, 3] = 1e-310, (3e-318, 1e-320), 1e-320
        values[4:] = make_rng(63).uniform(0.0, 1e-300, (4, 4))
        space = DiscreteMeasureSpace(np.array([0.5, 1e-3, 1.0, 2.0]))
        return FunctionFamily(space, values)

    @pytest.mark.parametrize("n", [1, 2, 17, 64, 65])
    @pytest.mark.parametrize("kind", ["random", "trig", "subnormal"])
    def test_equals_full_table(self, kind, n):
        fam = self.family(kind)
        grid = PGrid.log_spaced(1.05, 200.0, 64)
        if n == 64:
            pts = grid.points
        elif n == 65:
            # the grid and one refined p*: the last index, 64, is coarse
            pts = grid.with_extra([7.3])
        else:
            pts = np.geomspace(1.5, 150.0, n)
        values, w = fam.values, fam.space.weights
        blocks = [values, values[0] - values[1:], values[:0]]
        for scale in (np.ones(n), natural_psi(fam, grid).eval(pts), power(1.0).eval(pts)):
            got = grid_sups(iter(blocks), w, pts, scale)
            assert len(got) == 3
            for rows, sup in zip(blocks, got):
                assert np.array_equal(sup, self.full(rows, w, pts, scale))

    def test_one_wide_row_gathers_in_chunks(self, monkeypatch):
        # at 65,536 atoms the byte budget holds 16 gathered cells per chunk
        n = 65536
        row = make_rng(3).normal(size=(1, n))
        w = np.full(n, 1.0 / n)
        pts = PGrid.log_spaced(1.05, 200.0, 48).points
        scale = psi_doob(power(0.5)).eval(pts)
        gathered = []
        real = norms.lp_norm_cells

        def counted(values, weights, rows, ps):
            gathered.append(ps.size)
            return real(values, weights, rows, ps)

        monkeypatch.setattr(norms, "lp_norm_cells", counted)
        assert np.array_equal(grid_sups([row], w, pts, scale)[0], self.full(row, w, pts, scale))
        assert norms._KERNEL_BYTES // (8 * n) == 16 < gathered[0]


_MAGNITUDE = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, mantissa, exp: sign * mantissa * 10.0 ** exp,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.0), st.integers(-300, 299)),
)


# an O(1) value: 0 or a signed mantissa in [1, 9]
_UNIT = st.one_of(st.just(0.0), st.builds(lambda sign, mantissa: sign * mantissa,
                                          st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.0)))


@st.composite
def adversarial_family(draw):
    """Up to 6 members on 1-4 atoms, with zero rows and duplicate members.

    The values either spread from 1e-300 to 1e300 (and 0), each with its own
    decimal exponent, so that one member usually dwarfs the rest, or share
    one decimal scale from 1e-300 to 1e299 times O(1) values, so that
    several members matter at once."""
    m, atoms = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    spread = draw(st.booleans())
    cell = _MAGNITUDE if spread else _UNIT
    values = np.array(draw(st.lists(st.lists(cell, min_size=atoms, max_size=atoms),
                                    min_size=m, max_size=m)))
    if not spread:
        values *= 10.0 ** draw(st.integers(-300, 299))
    for i in range(m):
        kind = draw(st.sampled_from(["own", "zero", "copy"]))
        if kind == "zero":
            values[i] = 0.0
        elif kind == "copy":
            values[i] = values[draw(st.integers(0, m - 1))]
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=atoms, max_size=atoms))
    return FunctionFamily(DiscreteMeasureSpace(np.array(weights)), values)


@settings(max_examples=80, deadline=None)
@given(adversarial_family(), st.sampled_from(["natural", "constant", "power"]))
def test_pruning_is_exact_on_adversarial_families(fam, psi_name):
    grid = PGrid.log_spaced(1.05, 200.0, 40)
    if psi_name == "natural" and fam.values.any():
        psi = natural_psi(fam, grid)
    else:
        psi = power(1.0) if psi_name == "power" else constant()
    want = full_column_semimetric(fam, psi, grid)
    try:
        got = family_semimetric(fam, psi=psi, grid=grid).d
    except DomainError:
        # at 1e300 a tight triangle can round past the check's relative
        # slack, 1e-9 max(1, diameter); the full-column matrix must be
        # rejected the same way
        with pytest.raises(DomainError, match="triangle"):
            SemiMetric(want)
    else:
        assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(adversarial_family(), st.sampled_from(["natural", "constant", "power"]),
       st.sampled_from([None, 7.3]))
def test_grid_sups_exact_on_adversarial_families(fam, psi_name, extra):
    grid = PGrid.log_spaced(1.05, 200.0, 40)
    if psi_name == "natural" and fam.values.any():
        psi = natural_psi(fam, grid)
    else:
        psi = power(1.0) if psi_name == "power" else constant()
    pts = grid.with_extra(None if extra is None else [extra])
    values, w, scale = fam.values, fam.space.weights, psi.eval(pts)
    blocks = [values, values[0] - values]
    for rows, sup in zip(blocks, grid_sups(blocks, w, pts, scale)):
        assert np.array_equal(sup, TestGridSups.full(rows, w, pts, scale))


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
            metric = snapped_plane_metric(rng, m, int(rng.choice([4, 64])))
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
            exact = covering_number(metric, eps)
            greedy = covering_with_centers(metric, eps, "greedy")[0]
            assert exact <= greedy <= exact * (1 + math.log(metric.size)) + 1

    def test_greedy_usually_matches_exact(self):
        # greedy may exceed the optimum on adversarial instances; on random
        # plane metrics the excess should stay a rare event
        rng = make_rng(777)
        excess = 0
        for _ in range(200):
            metric = random_plane_metric(rng, int(rng.integers(3, 13)))
            eps = float(rng.uniform(0.05, 1.0)) * max(metric.diameter, 0.05)
            excess += (covering_with_centers(metric, eps, "greedy")[0]
                       > covering_number(metric, eps))
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
            covering_number(metric, 0.1)

    def test_monotone_in_eps_and_extremes(self):
        rng = make_rng(102)
        metric = random_plane_metric(rng, 10)
        epss = np.linspace(0.01, metric.diameter * 1.01, 12)
        ns = [covering_number(metric, e) for e in epss]
        assert all(a >= b for a, b in zip(ns, ns[1:]))
        assert covering_number(metric, metric.diameter) == 1
        mp = metric.d[metric.d > 0].min()
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
        fam = FunctionFamily(space, np.ones((4, 3)))
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

    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    @pytest.mark.parametrize("k_max", [1, 2, 32])
    def test_saturated_flag_matches_last_level(self, mode, k_max):
        # k_max = 32 saturates every metric here; 1 and 2 stop short of it
        # on most, and the zero-distance duplicates test n_distinct < m
        rng = make_rng(15)
        saw = set()
        for m in (2, 9, 16):
            metric = snapped_plane_metric(rng, m, 4)
            prof = covering_profile(metric, 0.5, k_max, mode=mode)
            assert prof.saturated == (prof.levels[-1].n_balls >= metric.n_distinct())
            saw.add(prof.saturated)
        assert saw == ({True} if k_max == 32 else {True, False})

    def test_k_max_below_one_rejected(self):
        with pytest.raises(DomainError):
            covering_profile(unit_interval_metric(4), 0.5, 0)

    def test_centers_cover_at_each_level(self):
        rng = make_rng(14)
        metric = random_plane_metric(rng, 14)
        prof = covering_profile(metric, 0.6, 10)
        for lv in prof.levels:
            covered = np.zeros(metric.size, dtype=bool)
            for c in lv.centers:
                covered |= metric.d[:, c] <= lv.eps
            assert covered.all()


def periodic_sup_metric(s: int, t: int) -> SemiMetric:
    """The s x t cell-centered lattice on [0,1]^2 under the periodic sup
    metric, built per coordinate on a meshgrid: the dense reference for a
    product of circle lattices."""
    xx, yy = np.meshgrid((np.arange(s) + 0.5) / s, (np.arange(t) + 0.5) / t, indexing="ij")
    px, py = xx.ravel(), yy.ravel()
    dx = np.abs(px[:, None] - px[None, :])
    np.minimum(dx, 1.0 - dx, out=dx)
    dy = np.abs(py[:, None] - py[None, :])
    np.minimum(dy, 1.0 - dy, out=dy)
    d = np.maximum(dx, dy)
    np.fill_diagonal(d, 0.0)
    return SemiMetric(d, trusted=True)


def probe_radii(metric: SemiMetric) -> list:
    """Each distinct distance, the float just below it, and 0.5^k for k = 1..8."""
    dist = np.unique(metric.d)
    below = np.nextafter(dist, -np.inf)
    return [float(e) for e in np.concatenate([dist, below, 0.5 ** np.arange(1, 9)]) if e > 0]


class TestLattices:
    def test_torus_matches_meshgrid_construction(self):
        # the torus is the sup product of two circle factors and never holds
        # its distance matrix; what the covering layer reads of it (size,
        # distinct points, balls) must equal the meshgrid construction's
        for j in range(2, 6):
            s = 2 ** j
            torus, dense = torus_lattice_metric(j), periodic_sup_metric(s, s)
            assert torus.size == dense.size == s * s
            assert torus.n_distinct() == dense.n_distinct() == s * s
            for eps in probe_radii(dense):
                assert np.array_equal(torus.balls(eps), dense.balls(eps)), (j, eps)
            assert covering_profile(torus, 0.5, 8) == covering_profile(dense, 0.5, 8)

    @pytest.mark.parametrize("j1, j2", [(2, 2), (1, 3)])
    def test_exact_cover_of_small_product(self, j1, j2):
        # 16 points, under EXACT_COVER_LIMIT: the exact solver's masks and
        # covers on the product equal those on its dense metric
        product = SupProductMetric((circle_lattice_metric(j1), circle_lattice_metric(j2)))
        dense = periodic_sup_metric(2 ** j1, 2 ** j2)
        assert product.size == dense.size == 16 <= EXACT_COVER_LIMIT
        for eps in probe_radii(dense):
            assert _ball_masks(product, eps) == _ball_masks(dense, eps), eps
            assert (covering_with_centers(product, eps, "exact")
                    == covering_with_centers(dense, eps, "exact")), eps


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
