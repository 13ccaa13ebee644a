"""Fourier partial sums and the maximal partial-sum operator on [-pi, pi].

Functions are sampled on a uniform K-point grid carrying Lebesgue weights
2 pi / K; coefficients c(n) = int exp(inx) f(x) dx come from the trapezoid
rule, which on a uniform periodic grid reproduces trigonometric polynomials
of degree <= K/4 exactly.  The maximal operator sup_M |s_M| is not
computable; it is approximated by running maxima over M <= M_max with a
saturation check across increasing M_max.

Each call builds one phase table exp(inx), n = -m..m, and reads both the
coefficients and the partial sums from it.  Only the half n >= 0 is
exponentiated; row -n is the complex conjugate of row n, which equals
exp(-inx) bit for bit because the real part of the exponent is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "partial_sum",
    "maximal_partial_sum",
    "maximal_partial_sums",
    "MaximalRatioReport",
    "maximal_ratio_check",
]


@dataclass(frozen=True)
class FourierSample:
    """f sampled on the uniform grid x_j = -pi + 2 pi j / K, j = 0..K-1."""

    x: np.ndarray
    values: np.ndarray
    space: DiscreteMeasureSpace

    def __post_init__(self):
        k = self.x.size
        if k % 2 != 0 or k < 8:
            raise DomainError("need an even grid size K >= 8")
        if self.values.shape != self.x.shape:
            raise DomainError("values must match the grid")

    @property
    def k_points(self) -> int:
        return int(self.x.size)

    def as_function(self) -> SimpleFunction:
        return SimpleFunction(self.space, self.values)


def sample_function(fn, k: int = 1024) -> FourierSample:
    x = -math.pi + 2.0 * math.pi * np.arange(k) / k
    values = np.asarray(fn(x), dtype=float)
    space = DiscreteMeasureSpace(np.full(k, 2.0 * math.pi / k))
    return FourierSample(x=x, values=values, space=space)


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


def _phases(sample: FourierSample, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2m+1, K) table exp(inx) and the coefficients c(n) it gives, for
    n = -m..m; row and index j hold n = j - m (see `fourier_coefficients`)."""
    if m > sample.k_points // 4:
        raise DomainError(
            f"m={m} too large for K={sample.k_points}; need m <= K/4 to avoid aliasing"
        )
    phase = np.zeros((2 * m + 1, sample.k_points), dtype=complex)
    half = phase[m:]
    np.multiply.outer(np.arange(m + 1), sample.x, out=half.imag)
    np.exp(half, out=half)
    np.conj(phase[:m:-1], out=phase[:m])
    return phase, phase @ (sample.space.weights * sample.values)


def fourier_coefficients(sample: FourierSample, m: int) -> np.ndarray:
    """c(n) = int_{-pi}^{pi} exp(inx) f(x) dx for n = -m..m (trapezoid rule).

    Index j of the returned array holds c(j - m).  Requires m <= K/4 so the
    quadrature stays alias-free on the functions of interest.
    """
    return _phases(sample, m)[1]


def partial_sum(sample: FourierSample, m: int) -> SimpleFunction:
    """s_m[f](x) = (1/2pi) sum_{|n|<=m} c(n) exp(-inx), evaluated on the grid."""
    phase, c = _phases(sample, m)
    vals = (c @ np.conj(phase)).real / (2.0 * math.pi)
    return SimpleFunction(sample.space, vals)


def maximal_partial_sums(sample: FourierSample, m_list) -> dict:
    """M -> pointwise max over M' = 1..M of |s_M'[f]|, for each M in m_list;
    one incremental pass over the coefficients up to max(m_list)."""
    todo = sorted(set(int(m) for m in m_list))
    if not todo or todo[0] < 1:
        raise DomainError(f"M list {todo} needs at least one M, each >= 1")
    m_top = todo[-1]
    phase, c = _phases(sample, m_top)
    mid = m_top  # index of c(0)
    s = np.full(sample.k_points, c[mid].real / (2.0 * math.pi))
    running = np.zeros(sample.k_points)
    out = {}
    for m in range(1, m_top + 1):
        term = (c[mid + m] * phase[mid - m]
                + c[mid - m] * phase[mid + m]).real / (2.0 * math.pi)
        s = s + term
        np.maximum(running, np.abs(s), out=running)
        if todo and m == todo[0]:
            out[m] = SimpleFunction(sample.space, running.copy())
            todo.pop(0)
    return out


def maximal_partial_sum(sample: FourierSample, m_max: int) -> SimpleFunction:
    """Pointwise max over M = 1..m_max of |s_M[f]|."""
    return maximal_partial_sums(sample, [m_max])[m_max]


@dataclass(frozen=True)
class MaximalRatioReport:
    rho: tuple                   # ((p, ((m, rho),...)), ...)
    saturation_ok: bool
    norm_ratio: float            # ||s*||_{G(psi_2)} / ||f||_{G(psi)}
    m_list: tuple

    @property
    def passed(self) -> bool:
        return self.saturation_ok


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
    f = sample.as_function()
    weight = pts ** 4 / (pts - 1.0) ** 2
    # row 0 is f, row 1 + j the running maximum at m_list[j]
    norms = lp_norm_matrix(np.stack([f.values] + [maxima[m].values for m in m_list]),
                           sample.space.weights, pts)
    rho = norms[1:] / (weight * norms[0])  # rho[j, i] = rho(pts[i], m_list[j])
    # growth test: at every p the final value must not escape the earlier plateau
    ok = len(m_list) < 2 or bool(np.all(rho[-1] <= 1.05 * rho[:-1].max(axis=0)))
    rho_rows = [(float(p), tuple(zip(m_list, col))) for p, col in zip(pts, rho.T)]
    psi2 = psi_fourier(psi)
    star = maxima[m_list[-1]]
    norm_ratio = (bgl_norm(star, psi2, grid).value
                  / bgl_norm(f, psi, grid).value)
    return MaximalRatioReport(rho=tuple(rho_rows), saturation_ok=ok,
                              norm_ratio=norm_ratio, m_list=tuple(m_list))
