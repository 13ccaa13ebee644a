"""Fourier partial sums and the maximal partial-sum operator on [-pi, pi].

Functions are sampled on the uniform K-point grid x_j = -pi + 2 pi j / K with
Lebesgue weights 2 pi / K, both fixed by K: a sample is its K values.
Coefficients c(n) = int exp(inx) f(x) dx come from the trapezoid rule, exact
on trigonometric polynomials of degree <= K/4.  The maximal operator sup_M
|s_M| is not computable; it is approximated by running maxima over M <= M_max
with a saturation check across increasing M_max.

Every phase on the grid is a K-th root of unity, exp(inx_j) = w^(n (j + K/2)
mod K) with w = exp(2 pi i / K): the coefficients are one real FFT and the
partial sums read one K-entry table of roots, so no array exceeds O(K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measure import DiscreteMeasureSpace, SimpleFunction
from .norms import bgl_norm, lp_norm_matrix
from .psi import PGrid, PsiFunction, psi_fourier

__all__ = [
    "FourierSample",
    "sample_function",
    "square_wave_sample",
    "trig_poly_sample",
    "fourier_coefficients",
    "maximal_partial_sums",
    "MaximalRatioReport",
    "maximal_ratio_check",
]


@dataclass(frozen=True)
class FourierSample:
    """f sampled on the uniform grid x_j = -pi + 2 pi j / K, j = 0..K-1: its K
    values alone.  K fixes the grid ``x`` and the atoms of weight 2 pi / K
    (``space``), both built on each access."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 1:
            raise DomainError("sample values must be a 1-d array")
        check_grid_size(self.values.size)
        if not (np.isrealobj(self.values) and np.all(np.isfinite(self.values))):
            raise DomainError("sample values must be real and finite")

    @property
    def x(self) -> np.ndarray:
        return _uniform_grid(self.values.size)

    @property
    def space(self) -> DiscreteMeasureSpace:
        return DiscreteMeasureSpace(np.full(self.values.size, 2.0 * math.pi / self.values.size))


def check_grid_size(k: int) -> None:
    """The sample grids have an even number K >= 8 of points."""
    if k % 2 != 0 or k < 8:
        raise DomainError("need an even grid size K >= 8")


def _uniform_grid(k: int) -> np.ndarray:
    return -math.pi + 2.0 * math.pi * np.arange(k) / k


def sample_function(fn, k: int = 1024) -> FourierSample:
    return FourierSample(np.asarray(fn(_uniform_grid(k)), dtype=float))


def square_wave_sample(k: int = 1024) -> FourierSample:
    return sample_function(np.sign, k)


def trig_poly_sample(coeffs_cos, coeffs_sin, k: int = 1024) -> FourierSample:
    """a_0/2 + sum_n a_n cos(nx) + b_n sin(nx) with a_n = coeffs_cos[n]."""
    a = np.asarray(coeffs_cos, dtype=float)
    b = np.asarray(coeffs_sin, dtype=float)

    def fn(x):
        out = np.full_like(x, 0.5 * a[0])
        for n in range(1, a.size):
            out += a[n] * np.cos(n * x)
        for n in range(1, b.size):
            out += b[n] * np.sin(n * x)
        return out

    return sample_function(fn, k)


def fourier_coefficients(sample: FourierSample, m: int) -> np.ndarray:
    """c(n) = int_{-pi}^{pi} exp(inx) f(x) dx for n = -m..m at index n + m; the
    trapezoid rule is one real FFT, c(n) = (2 pi / K) (-1)^n conj(rfft(f)[n]), and
    c(-n) = conj(c(n)).  m <= K/4 keeps it alias-free on the functions of interest."""
    k = sample.values.size
    if not 0 <= m <= k // 4:
        raise DomainError(f"m={m} outside 0..K/4 for K={k}; need m <= K/4 to avoid aliasing")
    half = np.conj(np.fft.rfft(sample.values)[:m + 1]) * (2.0 * math.pi / k)
    half[1::2] *= -1.0
    return np.concatenate([np.conj(half[:0:-1]), half])


def _partial_sums(sample: FourierSample, m_top: int):
    """s_0, s_1, .., s_{m_top} on the grid: s_n adds Re(conj(c(n)) exp(inx_j)) / pi
    to s_{n-1}, and exp(inx_j) is root n (j + K/2) mod K of a K-entry table."""
    k = sample.values.size
    c = fourier_coefficients(sample, m_top)[m_top:]  # c(0..m_top)
    # exp(2 pi i r / K), r = 0..K-1, computed in long double and rounded once
    roots = np.exp(np.arange(k) * (8j * np.arctan(np.longdouble(1)) / k)).astype(complex)
    step = (np.arange(k) + k // 2) % k
    s = np.full(k, c[0].real / (2.0 * math.pi))
    yield s
    for n in range(1, m_top + 1):
        s = s + (roots[step * n % k] * np.conj(c[n])).real / math.pi
        yield s


def maximal_partial_sums(sample: FourierSample, m_list) -> dict:
    """M -> pointwise max over M' = 1..M of |s_M'[f]|, for each M in m_list;
    one incremental pass over the coefficients up to max(m_list)."""
    wanted = {int(m) for m in m_list}
    if not wanted or min(wanted) < 1:
        raise DomainError(f"M list {sorted(wanted)} needs at least one M, each >= 1")
    space, running, out = sample.space, np.zeros(sample.values.size), {}
    for m, s in enumerate(_partial_sums(sample, max(wanted))):
        if m:
            np.maximum(running, np.abs(s), out=running)
        if m in wanted:
            out[m] = SimpleFunction(space, running.copy())
    return out


@dataclass(frozen=True)
class MaximalRatioReport:
    rho: tuple                   # ((p, ((m, rho),...)), ...)
    passed: bool                 # no growth trend in M at any p
    norm_ratio: float            # ||s*||_{G(psi_2)} / ||f||_{G(psi)}
    m_list: tuple


def maximal_ratio_check(sample: FourierSample, psi: PsiFunction, grid: PGrid,
                        m_list) -> MaximalRatioReport:
    """Uniform control of the maximal partial-sum operator.

    rho(p, M) = |s*_{<=M}[f]|_p / (p^4 |f|_p / (p-1)^2) must show no growth
    trend in M (last value <= 1.05 times the running max); the report
    also carries ||s*||_{G(psi_2)} / ||f||_{G(psi)} with the p^4/(p-1)^2
    weight folded into psi_2.
    """
    pts = psi.check_support(grid.points)  # p > a >= 1: the weight is finite
    maxima = maximal_partial_sums(sample, m_list)
    m_list = sorted(maxima)  # the distinct M, as ints
    f = SimpleFunction(sample.space, sample.values)
    weight = pts ** 4 / (pts - 1.0) ** 2
    # row 0 is f, row 1 + j the running maximum at m_list[j]
    norms = lp_norm_matrix(np.stack([f.values] + [maxima[m].values for m in m_list]),
                           f.space.weights, pts)
    rho = norms[1:] / (weight * norms[0])  # rho[j, i] = rho(pts[i], m_list[j])
    # growth test: at every p the final value must not escape the earlier plateau
    ok = len(m_list) < 2 or bool(np.all(rho[-1] <= 1.05 * rho[:-1].max(axis=0)))
    rho_rows = [(float(p), tuple(zip(m_list, col))) for p, col in zip(pts, rho.T)]
    star = maxima[m_list[-1]]
    norm_ratio = bgl_norm(star, psi_fourier(psi), grid).value / bgl_norm(f, psi, grid).value
    return MaximalRatioReport(rho=tuple(rho_rows), passed=ok,
                              norm_ratio=norm_ratio, m_list=tuple(m_list))
