import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bgl.errors import ConstructionError, DomainError, PreconditionError
from bgl import norms
from bgl.fixtures import make_rng, random_nonneg_family, sqrt_singularity_function
from bgl.measure import DiscreteMeasureSpace, FunctionFamily, SimpleFunction, indicator
from bgl.norms import (
    MriNormSpec,
    assemble_subset,
    bgl_norm,
    fatou_check,
    fundamental_function,
    indicator_norm_check,
    lp_norm,
    lp_norm_matrix,
    mri_norm,
    natural_psi,
)
from bgl.psi import PGrid, constant, doob_factor, from_formula, power


def unit_space(n, total=1.0):
    return DiscreteMeasureSpace(np.full(n, total / n))


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
        # the kernel's live-row mask would read a NaN row as a zero norm
        with pytest.raises(DomainError):
            SimpleFunction(unit_space(4), np.array([bad, 1.0, 2.0, 3.0]))

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

    def test_row_larger_than_budget(self):
        ps = np.geomspace(1.0, 200.0, 48)
        rng = make_rng(32)
        n = 65_536
        assert 8 * ps.size * n > norms._KERNEL_BYTES
        v, w = rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 1.5, n) / n
        got = lp_norm_matrix(v[None, :], w, ps)[0]
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
def test_lyapunov_interpolation(values, p0, p1, lam):
    # |f|_p <= |f|_{p0}^{1-lam} |f|_{p1}^{lam} when 1/p = (1-lam)/p0 + lam/p1
    f = SimpleFunction(unit_space(len(values)), np.array(values))
    p = 1.0 / ((1.0 - lam) / p0 + lam / p1)
    lhs = lp_norm(f, p)
    rhs = lp_norm(f, p0) ** (1.0 - lam) * lp_norm(f, p1) ** lam
    assert lhs <= rhs * (1.0 + 1e-9)


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
    assert bgl_norm(c * f, psi, grid).value == pytest.approx(c * nf, rel=1e-9, abs=1e-12)
    assert (bgl_norm(f + g, psi, grid).value
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
        psi0 = natural_psi(FunctionFamily.from_values(f.space, f.values[None, :], ("f",)), grid)
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


class TestRefinement:
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
                    coarse = bgl_norm(f, psi, grid, refine=False)
                    res = bgl_norm(f, psi, grid)
                    assert res.value >= coarse.value
                    dense = self.dense_bracket_max(f, psi, grid, coarse.p_star)
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
                coarse = bgl_norm(f, psi0, grid, refine=False)
                res = bgl_norm(f, psi0, grid)
                assert res.value >= coarse.value
                dense = self.dense_bracket_max(f, psi0, grid, coarse.p_star)
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
        assert bgl_norm(f, psi, grid, refine=False).p_star == 2.5
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
            assemble_subset(space, 2.5)


class TestNaturalPsi:
    def test_disjoint_indicators_give_unit_psi(self):
        fam = FunctionFamily.from_values(
            DiscreteMeasureSpace(np.ones(5)), np.eye(5))
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
        assert rep.passed and rep.terminal_gap == 0.0

    def test_scaled_chain_gap_bounded_by_homogeneity(self):
        f = SimpleFunction(unit_space(10), np.linspace(0.1, 1.0, 10))
        chain = [(1.0 - 1.0 / n) * f for n in range(2, 12)]
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
