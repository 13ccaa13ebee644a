import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bgl.errors import ConstructionError, DomainError, PreconditionError
from bgl import norms
from bgl.chaining import abs_sup
from bgl.entropy import SemiMetric, covering_number
from bgl.fixtures import make_rng, random_nonneg_family
from bgl.martingale import norming_log_loglog
from bgl.measure import DiscreteMeasureSpace, FunctionFamily, SimpleFunction, indicator
from bgl.norms import (
    MriNormSpec,
    bgl_norm,
    fatou_check,
    fundamental_function,
    indicator_norm_check,
    lp_norm,
    lp_norm_cells,
    lp_norm_matrix,
    mri_norm,
    natural_psi,
)
from bgl.psi import PGrid, constant, doob_factor, from_formula, power, product_psi


def unit_space(n, total=1.0):
    return DiscreteMeasureSpace(np.full(n, total / n))


def sqrt_singularity_function(n_atoms: int) -> SimpleFunction:
    """Midpoint discretization of f(x) = x^{-1/2} on (0, 1]: the moment
    function is (2/(2-p))^{1/p} for p in (1, 2), a closed-form generating
    function to test against."""
    x = (np.arange(n_atoms) + 0.5) / n_atoms
    return SimpleFunction(unit_space(n_atoms), x ** -0.5)


class TestLpNorm:
    def test_single_atom_weight_two(self):
        f = SimpleFunction(DiscreteMeasureSpace(np.array([2.0])), np.array([1.0]))
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_constant_on_probability_space(self):
        f = SimpleFunction(unit_space(10), np.ones(10))
        for p in [1.0, 2.0, 7.5, 100.0]:
            assert lp_norm(f, p) == pytest.approx(1.0, rel=1e-12)

    def test_two_values(self):
        f = SimpleFunction(DiscreteMeasureSpace(np.ones(2)), np.array([1.0, 2.0]))
        assert lp_norm(f, 3.0) == pytest.approx(9.0 ** (1.0 / 3.0), rel=1e-14)

    def test_large_p_does_not_overflow(self):
        f = SimpleFunction(DiscreteMeasureSpace(np.ones(3)), np.array([1e8, 3e7, 2e8]))
        v = lp_norm(f, 200.0)
        assert np.isfinite(v) and v == pytest.approx(2e8, rel=1e-2)

    def test_zero_function(self):
        f = SimpleFunction(unit_space(4), np.zeros(4))
        assert lp_norm(f, 3.0) == 0.0

    def test_p_below_one_rejected(self):
        f = SimpleFunction(unit_space(4), np.ones(4))
        with pytest.raises(DomainError):
            lp_norm(f, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        # a NaN or infinite value must not reach a norm as a number
        with pytest.raises(DomainError):
            SimpleFunction(unit_space(4), np.array([bad, 1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_kernel_rejects_non_finite_rows(self, bad, monkeypatch):
        # one row per chunk, the bad value in the last chunk; unchecked, a
        # NaN row would come out NaN or 0 and an infinite row NaN
        monkeypatch.setattr(norms, "_KERNEL_BYTES", 8 * 2 * 4)
        values = np.ones((3, 4))
        values[2, 1] = bad
        with pytest.raises(DomainError, match="NaN or infinite"):
            lp_norm_matrix(values, np.ones(4), np.array([1.5, 2.0]))

    def test_kernel_rejects_p_below_one(self):
        with pytest.raises(DomainError, match="p must be >= 1, got 0.5"):
            lp_norm_matrix(np.ones((2, 4)), np.ones(4), np.array([2.0, 0.5, 3.0]))

    def test_vectorized_matches_scalar(self):
        rng = make_rng(2)
        f = SimpleFunction(unit_space(12), rng.uniform(0, 3, 12))
        ps = np.array([1.5, 2.0, 11.0])
        vec = lp_norm(f, ps)
        assert np.allclose(vec, [lp_norm(f, p) for p in ps], rtol=1e-14)


def _mp_lp(row, weights, p):
    """(sum_i w_i |v_i|^p)^(1/p) in mpmath at the caller's precision."""
    total = mpmath.fsum(mpmath.mpf(float(w)) * abs(mpmath.mpf(float(v))) ** p
                        for v, w in zip(row, weights))
    return total ** (1 / p) if total else mpmath.mpf(0)


class TestKernelOracle:
    PS = [1.0, 1.5, 2.0, 3.7, 10.0, 50.0, 120.0, 200.0]

    def check(self, values, weights):
        got = lp_norm_matrix(values, weights, np.array(self.PS))
        with mpmath.workdps(60):
            for i, row in enumerate(values):
                for j, p in enumerate(self.PS):
                    exact = _mp_lp(row, weights, mpmath.mpf(p))
                    if exact == 0:
                        assert got[i, j] == 0.0
                    else:
                        err = abs(mpmath.mpf(float(got[i, j])) - exact) / exact
                        assert err <= 1e-13, (i, p, float(err))

    def test_rows_spanning_the_float_range(self):
        rng = make_rng(11)
        n = 32
        signs = rng.choice([-1.0, 1.0], size=n)
        values = np.array([
            rng.uniform(0.0, 1.0, n),
            signs * 10.0 ** rng.uniform(-300.0, 300.0, n),
            signs * np.geomspace(1e-300, 1e300, n),
            10.0 ** rng.uniform(-300.0, -250.0, n),
            10.0 ** rng.uniform(250.0, 300.0, n),
            np.zeros(n),
            np.where(np.arange(n) == 5, -7.0e-200, 0.0),
        ])
        self.check(values, rng.uniform(0.1, 2.0, n))

    def test_single_atom_space(self):
        self.check(np.array([[2.5], [-1e-300], [1e300], [0.0]]), np.array([0.375]))


class TestKernelChunks:
    """lp_norm_matrix walks its rows in chunks whose power tensor stays under
    norms._KERNEL_BYTES; rows are independent, so chunking moves no bit."""

    def test_chunks_equal_row_calls(self):
        ps = np.geomspace(1.0, 200.0, 64)
        rng = make_rng(31)
        w = rng.uniform(0.1, 2.0, 256)
        step = norms._KERNEL_BYTES // (8 * ps.size * w.size)
        # three full chunks, the second all zero, then a ragged last chunk
        values = rng.uniform(-3.0, 3.0, (3 * step + step // 2 + 1, w.size))
        values[step:2 * step] = 0.0
        values[2 * step, :7] = 0.0
        got = lp_norm_matrix(values, w, ps)
        rows = np.vstack([lp_norm_matrix(v[None, :], w, ps) for v in values])
        assert np.array_equal(got, rows)
        assert np.all(got[step:2 * step] == 0.0) and np.all(got[2 * step:] > 0.0)

    def test_row_subsets_are_bit_identical(self):
        # natural_psi evaluates only some members on this
        ps = np.geomspace(1.05, 200.0, 33)
        rng = make_rng(34)
        values, w = rng.uniform(-2.0, 2.0, (40, 256)), rng.uniform(0.1, 2.0, 256)
        full = lp_norm_matrix(values, w, ps)
        for _ in range(50):
            keep = rng.random(40) < 0.3
            assert np.array_equal(lp_norm_matrix(values[keep], w, ps), full[keep])

    @pytest.mark.parametrize("atoms, n_rows, n_p", [
        (7, 24, 48), (256, 24, 48), (8_193, 5, 8), (65_536, 3, 4),
    ])
    def test_every_cell_depends_only_on_its_row_and_p(self, atoms, n_rows, n_p):
        # row subsets, column subsets, single cells and flat gathers all
        # take the full call's bits (family_semimetric and natural_psi
        # evaluate only some cells on this)
        rng = make_rng(atoms)
        values = rng.uniform(-1.0, 1.0, (n_rows, atoms))
        values[1] = 0.0
        values[2] *= 1e-300
        w = rng.uniform(0.5, 1.5, atoms) / atoms
        ps = np.sort(np.r_[1.0, 2.0, rng.uniform(1.0, 200.0, n_p - 2)])
        full = lp_norm_matrix(values, w, ps)
        rows = rng.permutation(n_rows)[:n_rows // 2 + 1]
        cols = rng.permutation(n_p)[:n_p // 2 + 1]
        assert np.array_equal(lp_norm_matrix(values[rows], w, ps), full[rows])
        assert np.array_equal(lp_norm_matrix(values, w, ps[cols]), full[:, cols])
        for i, j in zip(rows, cols):
            assert lp_norm_matrix(values[i:i + 1], w, ps[j:j + 1])[0, 0] == full[i, j]
        # a gather of 40 cells is three chunks at 65,536 atoms
        gather_rows, gather_cols = rng.integers(0, n_rows, 40), rng.integers(0, n_p, 40)
        got = lp_norm_cells(values, w, gather_rows, ps[gather_cols])
        assert np.array_equal(got, full[gather_rows, gather_cols])

    @pytest.mark.parametrize("atoms, n_rows", [
        (1, 64), (7, 64), (64, 64), (1_000, 64), (70_000, 32),
    ])
    def test_every_call_shape_gives_one_bit_pattern(self, atoms, n_rows):
        # numpy squares an exponent of 2 (and roots 0.5) exactly only when it
        # arrives as a stride-0 scalar, and sends it through its SIMD pow
        # otherwise; the kernel must not let that choice reach a cell
        rng = make_rng(40 + atoms)
        values = rng.uniform(-1.0, 1.0, (n_rows, atoms))
        w = rng.uniform(0.5, 1.5, atoms) / atoms
        ps = np.array([1.0, 1.25, 2.0, 4.0])
        full = lp_norm_matrix(values, w, ps)
        every = np.arange(n_rows)
        for j, p in enumerate(ps):
            one = np.array([p])
            assert np.array_equal(lp_norm_matrix(values, w, one)[:, 0], full[:, j]), p
            for i in every[::8]:
                assert lp_norm_matrix(values[i:i + 1], w, one)[0, 0] == full[i, j], (p, i)
                assert lp_norm_cells(values, w, np.array([i]), one)[0] == full[i, j], (p, i)
            assert np.array_equal(lp_norm_cells(values, w, every, np.full(n_rows, p)),
                                  full[:, j]), p
        rows, cols = np.repeat(every, ps.size), np.tile(np.arange(ps.size), n_rows)
        assert np.array_equal(lp_norm_cells(values, w, rows, ps[cols]), full[rows, cols])

    def test_cells_reject_what_the_matrix_rejects(self):
        values, w = np.array([[1.0, 2.0], [np.nan, 0.0]]), np.ones(2)
        with pytest.raises(DomainError):
            lp_norm_cells(values[:1], w, np.array([0]), np.array([0.5]))
        with pytest.raises(DomainError):
            lp_norm_cells(values, w, np.array([0]), np.array([2.0]))

    def test_memory_layout_moves_no_bit(self):
        # a Fortran-ordered or strided matrix (a martingale level's rows are
        # one) must take the C-ordered matrix's summation order
        ps = np.geomspace(1.05, 200.0, 17)
        rng = make_rng(35)
        big, w = rng.uniform(-2.0, 2.0, (24, 96)), rng.uniform(0.1, 2.0, 48)
        big[4] = 0.0
        want = lp_norm_matrix(np.ascontiguousarray(big[::2, ::2]), w, ps)
        assert np.array_equal(lp_norm_matrix(big[::2, ::2], w, ps), want)
        assert np.array_equal(lp_norm_matrix(np.asfortranarray(big[::2, ::2]), w, ps), want)

    def test_row_larger_than_budget(self):
        # a row wider than the budget walks its exponents in chunks, so the
        # call stays near the budget and every cell keeps its own bits
        ps = np.geomspace(1.0, 200.0, 48)
        rng = make_rng(32)
        n = 65_536
        assert 8 * ps.size * n > 2 * norms._KERNEL_BYTES
        v, w = rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 1.5, n) / n
        tracemalloc.start()
        try:
            got = lp_norm_matrix(v[None, :], w, ps)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * norms._KERNEL_BYTES, peak
        assert all(lp_norm_matrix(v[None, :], w, ps[j:j + 1])[0, 0] == got[j] for j in (0, 17, 47))
        top = np.abs(v).max()
        ref = top * np.array([np.dot(w, (np.abs(v) / top) ** p) ** (1.0 / p) for p in ps])
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_peak_memory_within_budget(self):
        ps = np.geomspace(1.0, 200.0, 64)
        rng = make_rng(33)
        values, w = rng.uniform(0.0, 1.0, (600, 256)), np.full(256, 1.0 / 256)
        tracemalloc.start()
        try:
            out = lp_norm_matrix(values, w, ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * norms._KERNEL_BYTES + out.nbytes, peak


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=10),
       st.floats(1.0, 20.0), st.floats(1.0, 20.0), st.floats(0.05, 0.95))
@example(values=[0.0, 5e-324], p0=1.0, p1=2.0, lam=0.5)
def test_lyapunov_interpolation(values, p0, p1, lam):
    # |f|_p <= |f|_{p0}^{1-lam} |f|_{p1}^{lam} when 1/p = (1-lam)/p0 + lam/p1.
    # Subnormal norms round by up to one step of 2^-1074, which no relative
    # bound absorbs: on [0, 5e-324] |f|_1 = 2.5e-324 rounds to 0 while
    # |f|_{4/3} rounds up to 5e-324, hence the absolute slack.
    f = SimpleFunction(unit_space(len(values)), np.array(values))
    p = 1.0 / ((1.0 - lam) / p0 + lam / p1)
    lhs = lp_norm(f, p)
    rhs = lp_norm(f, p0) ** (1.0 - lam) * lp_norm(f, p1) ** lam
    assert lhs <= rhs * (1.0 + 1e-9) + 4 * math.ulp(0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=8),
       st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=8),
       st.floats(0.01, 100.0))
def test_bgl_homogeneity_and_triangle(values_a, values_b, c):
    n = min(len(values_a), len(values_b))
    space = unit_space(n)
    f = SimpleFunction(space, np.array(values_a[:n]))
    g = SimpleFunction(space, np.array(values_b[:n]))
    grid = PGrid.log_spaced(1.1, 30, 24)
    psi = power(0.5)
    nf = bgl_norm(f, psi, grid).value
    scaled = SimpleFunction(space, c * f.values)
    assert bgl_norm(scaled, psi, grid).value == pytest.approx(c * nf, rel=1e-9, abs=1e-12)
    assert (bgl_norm(SimpleFunction(space, f.values + g.values), psi, grid).value
            <= nf + bgl_norm(g, psi, grid).value + 1e-12)


class TestBglNorm:
    def test_unit_indicator_any_psi_one(self):
        space = unit_space(8)
        f = indicator(space, range(8))  # mu(A) = 1
        grid = PGrid.log_spaced(1.05, 60, 48)
        assert bgl_norm(f, constant(), grid).value == pytest.approx(1.0, rel=1e-12)

    def test_self_normalized_ratio_is_one(self):
        rng = make_rng(1)
        f = SimpleFunction(unit_space(24), rng.uniform(0.2, 2.0, 24))
        grid = PGrid.log_spaced(1.05, 40, 48)
        psi0 = natural_psi(FunctionFamily(f.space, f.values[None, :]), grid)
        assert bgl_norm(f, psi0, grid).value == pytest.approx(1.0, abs=1e-14)

    def test_inverse_sqrt_discretization(self):
        # |x^{-1/2}|_p^p = 2/(2-p) on (0,1]; the discretized norm against the
        # closed-form generating function stays within discretization error
        f = sqrt_singularity_function(4000)
        psi = from_formula(lambda p: (2.0 / (2.0 - p)) ** (1.0 / p), 1.0, 2.0)
        grid = PGrid.log_spaced(1.01, 1.95, 64)
        res = bgl_norm(f, psi, grid)
        assert res.value == pytest.approx(1.0, abs=0.02)

    def test_discretized_moments_match_quadrature(self):
        # independent oracle: scipy quadrature of x^{-p/2} on (0, 1].  The
        # midpoint rule loses the singular first cell at rate n^{p/2-1}, so
        # only exponents away from 2 are comparable at this resolution.
        f = sqrt_singularity_function(20000)
        for p in [1.1, 1.2, 1.4]:
            oracle = quad(lambda x: x ** (-p / 2.0), 0.0, 1.0)[0] ** (1.0 / p)
            assert lp_norm(f, p) == pytest.approx(oracle, rel=0.02)

    def test_grid_outside_support_raises(self):
        f = SimpleFunction(unit_space(4), np.ones(4))
        psi = from_formula(lambda p: p, 1.0, 2.0)
        with pytest.raises(DomainError):
            bgl_norm(f, psi, PGrid.log_spaced(1.5, 3.0, 8))

    def test_argmax_reported(self):
        f = sqrt_singularity_function(500)
        psi = constant(a=1.0, b=2.0)
        grid = PGrid.log_spaced(1.01, 1.99, 64)
        res = bgl_norm(f, psi, grid)
        assert res.p_star >= grid.points[-2]  # |f|_p grows toward p = 2


def _quadrature(q=2.0, alpha=1.0, node=4.0, weight=1.0):
    return MriNormSpec(kind="quadrature", q=q, alpha=alpha,
                       nodes=np.array([2.0, node]), weights=np.array([1.0, weight]))


# a non-finite argument must fail at its check, not turn into a NaN or zero
# norm, or an unrelated error, further down
@pytest.mark.parametrize("call", [
    lambda f, grid: bgl_norm(f, constant(math.nan), grid),
    lambda f, grid: bgl_norm(f, constant(math.inf), grid),
    lambda f, grid: bgl_norm(f, power(math.nan), grid),
    lambda f, grid: bgl_norm(f, power(math.inf), grid),
    lambda f, grid: fundamental_function(constant(), math.nan, grid),
    lambda f, grid: covering_number(SemiMetric(np.zeros((2, 2))), math.nan),
    lambda f, grid: mri_norm(f, _quadrature(q=math.nan)),
    lambda f, grid: mri_norm(f, _quadrature(q=math.inf)),
    lambda f, grid: mri_norm(f, _quadrature(alpha=math.nan)),
    lambda f, grid: mri_norm(f, _quadrature(alpha=math.inf)),
    lambda f, grid: mri_norm(f, _quadrature(weight=math.nan)),
    lambda f, grid: mri_norm(f, _quadrature(node=math.nan)),
    lambda f, grid: norming_log_loglog(math.nan),
    lambda f, grid: norming_log_loglog(math.inf),
], ids=["constant_nan", "constant_inf", "power_nan", "power_inf",
        "fundamental_delta_nan", "covering_eps_nan", "mri_q_nan", "mri_q_inf", "mri_alpha_nan",
        "mri_alpha_inf", "mri_weight_nan", "mri_node_nan", "loglog_delta_nan",
        "loglog_delta_inf"])
def test_non_finite_arguments_rejected(call):
    f = SimpleFunction(unit_space(4), np.arange(4.0))
    with pytest.raises(DomainError, match="must be"):
        call(f, PGrid.log_spaced(1.05, 60, 16))


class TestRefinement:
    @staticmethod
    def grid_argmax(f, psi, grid):
        """The grid-only norm and its argmax, before any refinement."""
        ratios = lp_norm(f, grid.points) / psi.eval(grid.points)
        j = int(np.argmax(ratios))
        return float(ratios[j]), float(grid.points[j])

    @staticmethod
    def dense_bracket_max(f, psi, grid, p_star):
        j = int(np.searchsorted(grid.points, p_star))
        if not 0 < j < grid.points.size - 1:
            return None
        xs = np.linspace(grid.points[j - 1], grid.points[j + 1], 20001)
        return float(np.max(lp_norm(f, xs) / psi.eval(xs)))

    def test_smooth_ratio_matches_dense_scan(self):
        # |f|_p / p^beta peaks inside the grid for small beta
        grid = PGrid.log_spaced(1.05, 200, 64)
        interior = 0
        for seed in range(4):
            fam = random_nonneg_family(make_rng(40 + seed), 4, 48)
            for beta in (0.05, 0.1, 0.2):
                psi = power(beta)
                for f in fam.members[:2]:
                    coarse, p_grid = self.grid_argmax(f, psi, grid)
                    res = bgl_norm(f, psi, grid)
                    assert res.value >= coarse
                    dense = self.dense_bracket_max(f, psi, grid, p_grid)
                    if dense is not None:
                        interior += 1
                        assert res.value == pytest.approx(dense, rel=1e-12)
        assert interior >= 15

    def test_kinked_ratio_never_below_dense_scan(self):
        # natural psi is a max of member moments: the ratio has corners,
        # where a 20,001-point scan undershoots the finer final rescan
        grid = PGrid.log_spaced(1.05, 200, 64)
        interior = 0
        for seed in range(6):
            fam = random_nonneg_family(make_rng(40 + seed), 4, 48)
            psi0 = natural_psi(fam, grid)
            for f in fam.members:
                coarse, p_grid = self.grid_argmax(f, psi0, grid)
                res = bgl_norm(f, psi0, grid)
                assert res.value >= coarse
                dense = self.dense_bracket_max(f, psi0, grid, p_grid)
                if dense is not None:
                    interior += 1
                    assert res.value >= dense * (1.0 - 1e-12)
        assert interior >= 3

    def test_two_peaks_in_one_bracket_returns_higher(self):
        # |f|_p = 1, so the ratio is 1/psi: dips at p = 2.3 and (deeper) 2.75
        # share the bracket [2, 3] around the grid argmax 2.5; a unimodal
        # search from the golden-section points would settle on 2.3
        f = SimpleFunction(unit_space(6), np.ones(6))
        psi = from_formula(lambda p: 2.0 - 0.3 * np.exp(-(p - 2.5) ** 2)
                           - 0.2 * np.exp(-((p - 2.3) / 0.1) ** 2)
                           - 0.4 * np.exp(-((p - 2.75) / 0.1) ** 2), 1.0, 5.0)
        grid = PGrid(np.array([1.5, 2.0, 2.5, 3.0, 3.5]))
        assert self.grid_argmax(f, psi, grid)[1] == 2.5
        res = bgl_norm(f, psi, grid)
        xs = np.linspace(2.0, 3.0, 20001)
        k = int(np.argmax(1.0 / psi.eval(xs)))
        assert res.p_star == pytest.approx(xs[k], abs=1e-3)
        assert res.value == pytest.approx(1.0 / psi.eval(xs[k]), rel=1e-9)


class TestFundamentalFunction:
    def test_delta_one(self):
        grid = PGrid.log_spaced(1.001, 100, 64)
        assert fundamental_function(constant(), 1.0, grid) == pytest.approx(1.0, rel=1e-12)

    def test_small_delta_capped_grid(self):
        grid = PGrid.log_spaced(1.001, 100, 128, p_max_cap=100.0)
        v = fundamental_function(constant(), 0.5, grid)
        assert v == pytest.approx(0.5 ** (1.0 / 100.0), rel=1e-9)

    def test_large_delta_attained_at_low_edge(self):
        grid = PGrid.log_spaced(1.001, 100, 128)
        v = fundamental_function(constant(), 4.0, grid)
        assert v == pytest.approx(4.0 ** (1.0 / grid.points[0]), rel=1e-9)

    def test_nan_extra_point_rejected(self):
        grid = PGrid.log_spaced(1.05, 50, 48)
        with pytest.raises(DomainError):
            fundamental_function(constant(), 2.0, grid, extra_points=[math.nan])

    def test_monotone_in_delta(self):
        grid = PGrid.log_spaced(1.05, 50, 48)
        psi = doob_factor()
        vals = [fundamental_function(psi, d, grid) for d in [0.25, 0.5, 1.0, 2.0, 4.0]]
        assert np.all(np.diff(vals) >= 0)


class TestIndicatorCheck:
    def test_matrix(self):
        space = unit_space(256, total=16.0)  # weights 1/16: dyadic masses exact
        grid = PGrid.log_spaced(1.05, 60, 64)
        for delta in [0.25, 0.5, 1.0, 2.0]:
            for psi in [constant(), power(1.0), doob_factor()]:
                rep = indicator_norm_check(space, delta, psi, grid)
                assert rep.passed, (delta, psi.label, rep.rel_diff)

    def test_unrealizable_mass(self):
        space = DiscreteMeasureSpace(np.full(4, 1.0))
        with pytest.raises(ConstructionError):
            indicator_norm_check(space, 2.5, constant(), PGrid.log_spaced(1.05, 60, 64))


class TestNaturalPsi:
    def test_disjoint_indicators_give_unit_psi(self):
        fam = FunctionFamily(DiscreteMeasureSpace(np.ones(5)), np.eye(5))
        grid = PGrid.log_spaced(1.05, 40, 32)
        psi0 = natural_psi(fam, grid)
        assert np.allclose(psi0.eval(grid.points), 1.0, rtol=1e-14)

    def test_random_family_sigma_is_one(self):
        rng = make_rng(9)
        fam = random_nonneg_family(rng, 10, 48)
        grid = PGrid.log_spaced(1.05, 50, 64)
        psi0 = natural_psi(fam, grid)
        sigma = max(bgl_norm(f, psi0, grid).value for f in fam.members)
        assert sigma == pytest.approx(1.0, abs=1e-12)

    def test_zero_family_rejected(self):
        # psi0 = 0 would make bgl_norm return NaN silently
        fam = FunctionFamily(unit_space(5), np.zeros((3, 5)))
        with pytest.raises(DomainError, match="all members zero"):
            natural_psi(fam, PGrid.log_spaced(1.05, 40, 16))


class TestNaturalPsiExact:
    """psi0.eval answers grid points from the grid table and other points
    from the members that can attain the max; either way it equals the full
    kernel call's column max."""

    GRID = PGrid.log_spaced(1.05, 60.0, 24)
    G = GRID.points
    REQUESTS = {
        "grid": G,
        "grid point": float(G[7]),
        "scalar": 3.3,
        "one cell": np.linspace(G[5] + 1e-3, G[6] - 1e-3, 33),
        "several cells": np.linspace(G[3], G[11], 33),
        "below g_0": np.linspace(1.0, G[2], 9),
        "above g_last": np.linspace(G[-3], 90.0, 9),
        "outside both ends": np.array([1.01, 5.0, 150.0]),
        "grid subset": G[[2, 5, 6, 17]],
        "permuted grid": G[np.r_[9, 0, 23, 4, 17, 11]],
        "mixed": np.array([G[4], 2.2, G[0], 150.0, G[-1], 30.0, G[9], 1.01]),
    }

    @staticmethod
    def family(m, mass):
        rng = make_rng(41)
        n = 40
        w = rng.uniform(0.1, 2.0, n)
        w *= mass / w.sum()
        # members of different spread, so the argmax member changes with p
        values = rng.uniform(0.0, 1.0, (m, n)) ** np.geomspace(0.2, 5.0, m)[:, None]
        values *= np.geomspace(1.0, 0.6, m)[:, None]
        if m >= 6:
            values[3] = values[0]
            values[5] = 0.0
        return FunctionFamily(DiscreteMeasureSpace(w), values)

    @pytest.mark.parametrize("m, mass", [(12, 1e-3), (12, 1.0), (12, 1e3), (1, 7.0)])
    @pytest.mark.parametrize("request_name", list(REQUESTS))
    def test_equals_full_kernel_max(self, m, mass, request_name):
        fam = self.family(m, mass)
        psi0 = natural_psi(fam, self.GRID)
        p = self.REQUESTS[request_name]
        want = lp_norm_matrix(fam.values, fam.space.weights,
                              np.atleast_1d(p)).max(axis=0)
        got = psi0.eval(p)
        if np.ndim(p):
            assert np.array_equal(got, want)
        else:
            assert isinstance(got, np.floating) and got == want[0]

    def test_grid_table_is_not_shared(self):
        fam = self.family(12, 1.0)
        psi0 = natural_psi(fam, self.GRID)
        first = psi0.eval(self.G)
        want = first.copy()
        first *= 0.0
        assert np.array_equal(psi0.eval(self.G), want)

    def test_work(self, monkeypatch):
        fam = random_nonneg_family(make_rng(42), 32, 256)
        grid = PGrid.log_spaced(1.05, 200.0, 64)
        psi0 = natural_psi(fam, grid)
        calls = []
        kernel = norms.lp_norm_matrix

        def counted(values, weights, ps):
            calls.append((np.shape(values)[0], np.size(ps)))
            return kernel(values, weights, ps)

        monkeypatch.setattr(norms, "lp_norm_matrix", counted)
        psi0.eval(grid.points)
        assert calls == []
        bgl_norm(abs_sup(fam), product_psi(psi0, power(1.0)), grid)
        # the grid pass is one row of |max Y| and psi0 from its table; then
        # each refinement round is |max Y| (one row) and psi0 on the members
        # that can attain the max, at the round's off-grid points only: the
        # first bracket's two ends are grid points
        assert calls[0] == (1, 64)
        rounds = calls[1:]
        assert len(rounds) >= 2 and len(rounds) % 2 == 0
        assert rounds[0::2] == [(1, 33)] * (len(rounds) // 2)
        assert rounds[1][1] == 31
        assert all(31 <= size <= 33 and 1 <= rows < fam.m for rows, size in rounds[1::2])


class TestMriNorm:
    def test_sup_kind_equals_bgl(self):
        rng = make_rng(4)
        f = SimpleFunction(unit_space(16), rng.uniform(0, 2, 16))
        grid = PGrid.log_spaced(1.05, 40, 32)
        spec = MriNormSpec(kind="sup", psi=constant(), grid=grid)
        assert mri_norm(f, spec) == bgl_norm(f, constant(), grid).value

    def test_single_node_degenerate_quadrature(self):
        rng = make_rng(4)
        f = SimpleFunction(unit_space(16), rng.uniform(0, 2, 16))
        spec = MriNormSpec(kind="quadrature", q=1.0, alpha=0.0,
                           nodes=np.array([2.0]), weights=np.array([1.0]))
        assert mri_norm(f, spec) == pytest.approx(lp_norm(f, 2.0), rel=1e-14)

    def test_constant_function_two_nodes(self):
        f = SimpleFunction(unit_space(8), np.ones(8))
        spec = MriNormSpec(kind="quadrature", q=2.0, alpha=1.0,
                           nodes=np.array([2.0, 4.0]), weights=np.array([1.0, 1.0]))
        assert mri_norm(f, spec) == pytest.approx(math.sqrt(0.3125), rel=1e-12)

    def test_negative_weights_rejected(self):
        with pytest.raises(DomainError):
            MriNormSpec(kind="quadrature", nodes=np.array([2.0]),
                        weights=np.array([-1.0]))


class TestFatou:
    def grid(self):
        return PGrid.log_spaced(1.1, 40, 32)

    def test_constant_chain(self):
        f = SimpleFunction(unit_space(10), np.linspace(0.1, 1.0, 10))
        rep = fatou_check([f, f, f], f, constant(), self.grid())
        assert rep.monotone and rep.terminal_gap == 0.0

    def test_scaled_chain_gap_bounded_by_homogeneity(self):
        f = SimpleFunction(unit_space(10), np.linspace(0.1, 1.0, 10))
        chain = [SimpleFunction(f.space, (1.0 - 1.0 / n) * f.values) for n in range(2, 12)]
        rep = fatou_check(chain, f, constant(), self.grid())
        norm_f = bgl_norm(f, constant(), self.grid()).value
        assert rep.monotone
        assert rep.terminal_gap <= norm_f / 11.0 + 1e-12

    def test_truncation_chain_on_large_space(self):
        n = 1000
        space = unit_space(n)
        full = SimpleFunction(space, 2.0 ** -(np.arange(n) / 40.0))
        chain = []
        for k in range(100, n + 1, 100):
            v = np.zeros(n)
            v[:k] = full.values[:k]
            chain.append(SimpleFunction(space, v))
        rep = fatou_check(chain, full, doob_factor(), self.grid())
        assert rep.monotone and 0.0 <= rep.terminal_gap < 1e-6

    def test_non_monotone_chain_rejected(self):
        space = unit_space(4)
        f1 = SimpleFunction(space, np.array([1.0, 1.0, 0.0, 0.0]))
        f2 = SimpleFunction(space, np.array([0.5, 1.0, 1.0, 0.0]))
        with pytest.raises(PreconditionError):
            fatou_check([f1, f2], f2, constant(), self.grid())
