import math

import numpy as np
import pytest
from scipy.integrate import quad

from bgl.errors import DomainError
from bgl.fixtures import make_rng, random_trig_coeffs
from bgl.fourier import (
    fourier_coefficients,
    maximal_partial_sum,
    maximal_partial_sums,
    maximal_ratio_check,
    partial_sum,
    sample_function,
    square_wave_sample,
    trig_poly_sample,
)
from bgl.norms import lp_norm, lp_norm_matrix
from bgl.psi import PGrid, constant

GIBBS = 1.178979744471914  # (2/pi) Si(pi)


class TestCoefficients:
    def test_constant_function(self):
        s = sample_function(lambda x: np.ones_like(x), 1024)
        c = fourier_coefficients(s, 4)
        assert c[4].real == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert np.max(np.abs(np.delete(c, 4))) < 1e-12

    def test_cosine(self):
        s = sample_function(np.cos, 1024)
        c = fourier_coefficients(s, 3)
        assert c[2].real == pytest.approx(math.pi, rel=1e-12)
        assert c[4].real == pytest.approx(math.pi, rel=1e-12)
        others = np.delete(c, [2, 4])
        assert np.max(np.abs(others)) < 1e-10

    def test_square_wave_against_quad_oracle(self):
        # oracle: direct quadrature of exp(inx) sign(x); grid quadrature of a
        # jump carries an O(1/K) error, so compare at that scale
        k = 4096
        s = square_wave_sample(k)
        c = fourier_coefficients(s, 6)
        for n in [1, 2, 3, 5]:
            re = quad(lambda x: math.cos(n * x) * np.sign(x), -math.pi, math.pi)[0]
            im = quad(lambda x: math.sin(n * x) * np.sign(x), -math.pi, math.pi)[0]
            assert c[6 + n] == pytest.approx(complex(re, im), abs=4.0 * math.pi / k)

    def test_aliasing_guard(self):
        s = sample_function(np.cos, 64)
        with pytest.raises(DomainError):
            fourier_coefficients(s, 32)

    def test_trig_polynomial_roundtrip(self):
        # partial sums of degree >= deg reproduce the polynomial exactly
        rng = make_rng(41)
        a, b = random_trig_coeffs(rng, 12)
        s = trig_poly_sample(a, b, 1024)
        for m in [12, 20]:
            sm = partial_sum(s, m)
            assert np.max(np.abs(sm.values - s.values)) < 1e-10


def _phase_samples(k):
    a, b = random_trig_coeffs(make_rng(k), 9)
    return [square_wave_sample(k), trig_poly_sample(a, b, k),
            sample_function(lambda x: np.exp(np.sin(3.0 * x)) - x, k)]


class TestPhaseTable:
    """The conjugate half-table gives the same bits as exponentiating every row."""

    @pytest.mark.parametrize("k", [8, 64, 1024, 4096])
    def test_coefficients_equal_full_exponential(self, k):
        m = k // 4
        samples = _phase_samples(k)
        full = np.exp(1j * np.outer(np.arange(-m, m + 1), samples[0].x))
        for s in samples:
            expected = full @ (s.space.weights * s.values)
            assert np.array_equal(fourier_coefficients(s, m), expected)

    @pytest.mark.parametrize("k", [64, 1024, 4096])
    def test_running_maxima_equal_per_step_exponentials(self, k):
        checkpoints = sorted({1, 5, k // 16, min(k // 4, 256)})
        for s in _phase_samples(k):
            # the incremental pass with two exponentials per step
            m_top = max(checkpoints)
            c = fourier_coefficients(s, m_top)
            cur = np.full(k, c[m_top].real / (2.0 * math.pi))
            running = np.zeros(k)
            expected = {}
            for m in range(1, m_top + 1):
                term = (c[m_top + m] * np.exp(-1j * m * s.x)
                        + c[m_top - m] * np.exp(1j * m * s.x)).real / (2.0 * math.pi)
                cur = cur + term
                np.maximum(running, np.abs(cur), out=running)
                if m in checkpoints:
                    expected[m] = running.copy()
            got = maximal_partial_sums(s, checkpoints)
            assert sorted(got) == checkpoints
            for m in checkpoints:
                assert np.array_equal(got[m].values, expected[m]), m


class TestMaximalPartialSum:
    def test_constant_function(self):
        s = sample_function(lambda x: np.ones_like(x), 256)
        star = maximal_partial_sum(s, 8)
        assert np.allclose(star.values, 1.0, atol=1e-12)

    def test_cosine_gives_abs(self):
        s = sample_function(np.cos, 256)
        star = maximal_partial_sum(s, 5)
        assert np.allclose(star.values, np.abs(np.cos(s.x)), atol=1e-10)

    def test_gibbs_overshoot_near_jump(self):
        k = 4096
        s = square_wave_sample(k)
        star = maximal_partial_sum(s, 64)
        window = (s.x > 0) & (s.x <= 4.0 * math.pi / 64.0)
        near_jump = float(np.max(star.values[window]))
        assert near_jump == pytest.approx(GIBBS, abs=5e-3)
        # independent oracle: dense partial sums from analytic coefficients
        xs = np.linspace(1e-4, 4.0 * math.pi / 64.0, 20000)
        acc = np.zeros_like(xs)
        best = np.zeros_like(xs)
        for m in range(1, 65, 2):
            acc = acc + (4.0 / math.pi) * np.sin(m * xs) / m
            np.maximum(best, np.abs(acc), out=best)
        assert near_jump == pytest.approx(float(best.max()), abs=2e-3)

    def test_checkpoints_consistent_with_single_runs(self):
        s = square_wave_sample(1024)
        multi = maximal_partial_sums(s, [8, 16, 32])
        for m in [8, 16, 32]:
            single = maximal_partial_sum(s, m)
            assert np.array_equal(multi[m].values, single.values)

    def test_running_max_monotone_in_m(self):
        s = square_wave_sample(1024)
        multi = maximal_partial_sums(s, [4, 8, 16])
        assert np.all(multi[8].values >= multi[4].values)
        assert np.all(multi[16].values >= multi[8].values)


class TestMaximalRatio:
    def grid(self):
        return PGrid.log_spaced(1.1, 32, 20)

    def test_cosine_closed_form(self):
        s = sample_function(np.cos, 512)
        rep = maximal_ratio_check(s, constant(), self.grid(), [4, 8])
        for p, row in rep.rho:
            expected = (p - 1.0) ** 2 / p ** 4
            for _, r in row:
                assert r == pytest.approx(expected, rel=1e-10)
                assert r <= 1.0
        assert rep.passed

    def test_constant_function_closed_form(self):
        s = sample_function(lambda x: np.ones_like(x), 512)
        rep = maximal_ratio_check(s, constant(), self.grid(), [4, 8])
        for p, row in rep.rho:
            for _, r in row:
                assert r == pytest.approx((p - 1.0) ** 2 / p ** 4, rel=1e-10)

    def test_square_wave_saturates(self):
        s = square_wave_sample(1024)
        rep = maximal_ratio_check(s, constant(), self.grid(), [16, 32, 64, 128])
        assert rep.passed
        assert rep.norm_ratio > 0

    def test_rho_matches_scalar_norms(self):
        # the batched norms land in the right (p, m) cells
        s = _phase_samples(1024)[1]
        grid = self.grid()
        m_list = [8, 16, 32, 64]
        rep = maximal_ratio_check(s, constant(), grid, m_list)
        maxima = maximal_partial_sums(s, m_list)
        f = s.as_function()
        assert [p for p, _ in rep.rho] == list(grid.points)
        for p, row in rep.rho:
            assert [m for m, _ in row] == m_list
            for m, r in row:
                expected = lp_norm(maxima[m], p) / (p ** 4 / (p - 1.0) ** 2 * lp_norm(f, p))
                assert r == pytest.approx(expected, rel=4e-15, abs=0)

    def test_rho_equals_per_element_loop(self):
        # the array rho performs, cell by cell, the division of a per-(p, M)
        # loop over the same batched norm matrix
        s = _phase_samples(1024)[1]
        grid = self.grid()
        m_list = [8, 16, 32, 64]
        rep = maximal_ratio_check(s, constant(), grid, m_list)
        maxima = maximal_partial_sums(s, m_list)
        pts = grid.points
        norms = lp_norm_matrix(np.stack([s.values] + [maxima[m].values for m in m_list]),
                               s.space.weights, pts)
        weight = pts ** 4 / (pts - 1.0) ** 2
        for i, (p, row) in enumerate(rep.rho):
            assert p == pts[i]
            for j, (m, r) in enumerate(row):
                assert type(m) is int and type(r) is np.float64
                assert (m, r) == (m_list[j], norms[1 + j, i] / (weight[i] * norms[0, i]))

    def test_growth_verdict_flips_on_rising_case(self):
        # the Dirichlet kernel D_64: its partial sums D_M keep rising with
        # M up to 64, so the last running max escapes the earlier plateau;
        # D_4 has no terms beyond M = 4, so its running max stays flat
        dirichlet = sample_function(
            lambda x: 0.5 + sum(np.cos(n * x) for n in range(1, 65)), 1024)
        flat = sample_function(
            lambda x: 0.5 + sum(np.cos(n * x) for n in range(1, 5)), 1024)
        assert not maximal_ratio_check(dirichlet, constant(), self.grid(), [2, 4, 64]).passed
        assert maximal_ratio_check(flat, constant(), self.grid(), [4, 8, 64]).passed

    def test_m_below_one_rejected(self):
        s = square_wave_sample(64)
        for m_list in ([0], [], [-1, 4]):
            with pytest.raises(DomainError):
                maximal_partial_sums(s, m_list)
        with pytest.raises(DomainError):
            maximal_partial_sum(s, 0)

    def test_random_trig_polys_saturate(self):
        rng = make_rng(42)
        for _ in range(3):
            a, b = random_trig_coeffs(rng, int(rng.integers(3, 12)))
            s = trig_poly_sample(a, b, 1024)
            rep = maximal_ratio_check(s, constant(), self.grid(), [16, 32, 64, 128])
            assert rep.passed
