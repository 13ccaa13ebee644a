import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from bgl.errors import DomainError
from bgl.fixtures import make_rng, random_trig_coeffs
from bgl.fourier import (
    FourierSample,
    _partial_sums,
    fourier_coefficients,
    maximal_partial_sums,
    maximal_ratio_check,
    sample_function,
    square_wave_sample,
    trig_poly_sample,
)
from bgl.measure import SimpleFunction
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
            *_, sm = _partial_sums(s, m)
            assert np.max(np.abs(sm - s.values)) < 1e-10


def _phase_samples(k):
    a, b = random_trig_coeffs(make_rng(k), 9)
    return [square_wave_sample(k), trig_poly_sample(a, b, k),
            sample_function(lambda x: np.exp(np.sin(3.0 * x)) - x, k)]


LD = np.longdouble


def _oracle(values, m_top, checkpoints):
    """Extended-precision reference on the exact grid: the phase of exp(inx_j)
    is 2 pi r / K at the integer r = n (j + K/2) mod K, in long double.
    Returns c(0..m_top) and the running maxima of |s_M| at the checkpoints."""
    k = values.size
    f = values.astype(LD)
    pi = 4 * np.arctan(LD(1))
    turn = np.arange(k).astype(LD) * (2 * pi / k)
    cos, sin = np.cos(turn), np.sin(turn)
    step = (np.arange(k) + k // 2) % k
    coef = []
    for n in range(m_top + 1):
        r = n * step % k
        coef.append((2 * pi / k * np.sum(f * cos[r]), 2 * pi / k * np.sum(f * sin[r])))
    s = np.full(k, coef[0][0] / (2 * pi))
    running = np.zeros(k, dtype=LD)
    maxima = {}
    for n in range(1, max(checkpoints) + 1):
        r = n * step % k
        s = s + (coef[n][0] * cos[r] + coef[n][1] * sin[r]) / pi
        np.maximum(running, np.abs(s), out=running)
        if n in checkpoints:
            maxima[n] = running.copy()
    return coef, maxima


@pytest.mark.skipif(np.finfo(LD).eps >= np.finfo(float).eps,
                    reason="the oracle needs an extended long double")
class TestPhaseTable:
    """Coefficients and running maxima against an extended-precision oracle
    on the exact grid, at tolerances that phases exp(i n x_j) taken in double
    would miss: n * x_j carries n times the rounding of x_j."""

    @pytest.mark.parametrize("k", [8, 64, 1024, 4096])
    def test_coefficients_equal_full_exponential(self, k):
        m = k // 4
        for s in _phase_samples(k):
            coef, _ = _oracle(s.values, m, [1])
            ref = np.array([complex(float(re), float(im)) for re, im in coef])
            got = fourier_coefficients(s, m)
            assert np.max(np.abs(got[m:] - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", [8, 64, 1024, 4096])
    def test_running_maxima_equal_per_step_exponentials(self, k):
        checkpoints = sorted(m for m in {1, 5, k // 16, min(k // 4, 256)} if 1 <= m <= k // 4)
        for s in _phase_samples(k):
            _, ref = _oracle(s.values, max(checkpoints), checkpoints)
            got = maximal_partial_sums(s, checkpoints)
            assert sorted(got) == checkpoints
            for m in checkpoints:
                err = np.max(np.abs(got[m].values - ref[m]))
                assert err <= 4e-15 * np.max(ref[m]), (m, float(err))

    def test_oracle_against_mpmath(self):
        # spot cells at 30 digits: the long-double phases and the coefficients
        k = 64
        s = _phase_samples(k)[2]
        coef, _ = _oracle(s.values, 16, [1])
        got = fourier_coefficients(s, 16)
        step = (np.arange(k) + k // 2) % k
        with mpmath.workdps(30):
            for n in (1, 7, 16):
                c = sum(mpmath.mpf(float(v)) * mpmath.expjpi(mpmath.mpf(2 * int(r)) / k)
                        for v, r in zip(s.values, n * step % k)) * 2 * mpmath.pi / k
                for part, ours, oracle in ((c.real, got[16 + n].real, coef[n][0]),
                                           (c.imag, got[16 + n].imag, coef[n][1])):
                    scale = abs(c)
                    assert abs(mpmath.mpf(str(oracle)) - part) <= 1e-17 * scale, n
                    assert abs(ours - part) <= 1e-15 * scale, n

    @pytest.mark.parametrize("k", [8, 1024])
    def test_negative_frequencies_are_conjugates(self, k):
        m = k // 4
        for s in _phase_samples(k):
            c = fourier_coefficients(s, m)
            assert np.array_equal(c[:m][::-1], np.conj(c[m + 1:]))

    def test_memory_budget(self):
        # O(K) arrays only: a (2m+1) x K complex table alone would be 32 MiB
        s = square_wave_sample(4096)
        tracemalloc.start()
        try:
            maximal_partial_sums(s, [256])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, peak


class TestSampleBoundary:
    """A sample is its K values: a complex, non-finite or non-1-d array, or
    a K that is odd or below 8, is rejected with a one-line DomainError."""

    def _raises(self, values):
        with pytest.raises(DomainError) as err:
            FourierSample(values)
        assert "\n" not in str(err.value)

    def test_uniform_sample_accepted(self):
        s = square_wave_sample(64)
        copy = FourierSample(s.values.copy())
        assert np.array_equal(copy.x, -math.pi + 2.0 * math.pi * np.arange(64) / 64)
        assert np.array_equal(copy.space.weights, np.full(64, 2.0 * math.pi / 64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        s = square_wave_sample(64)
        values = s.values.copy()
        values[10] = bad
        self._raises(values)
        with pytest.raises(DomainError):
            sample_function(lambda x: np.where(x == 0.0, bad, 1.0), 64)

    def test_complex_values_rejected(self):
        s = square_wave_sample(64)
        self._raises(s.values + 1j * s.values)

    def test_shape_and_size_rejected(self):
        self._raises(np.ones((8, 8)))
        self._raises(np.ones(9))
        self._raises(np.ones(6))


class TestMaximalPartialSum:
    def test_constant_function(self):
        s = sample_function(lambda x: np.ones_like(x), 256)
        star = maximal_partial_sums(s, [8])[8]
        assert np.allclose(star.values, 1.0, atol=1e-12)

    def test_cosine_gives_abs(self):
        s = sample_function(np.cos, 256)
        star = maximal_partial_sums(s, [5])[5]
        assert np.allclose(star.values, np.abs(np.cos(s.x)), atol=1e-10)

    def test_gibbs_overshoot_near_jump(self):
        k = 4096
        s = square_wave_sample(k)
        star = maximal_partial_sums(s, [64])[64]
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
            single = maximal_partial_sums(s, [m])[m]
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
        f = SimpleFunction(s.space, s.values)
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

    def test_random_trig_polys_saturate(self):
        rng = make_rng(42)
        for _ in range(3):
            a, b = random_trig_coeffs(rng, int(rng.integers(3, 12)))
            s = trig_poly_sample(a, b, 1024)
            rep = maximal_ratio_check(s, constant(), self.grid(), [16, 32, 64, 128])
            assert rep.passed
