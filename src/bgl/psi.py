"""Generating functions for grand Lebesgue norms.

A generating function psi lives on an open interval (a, b) with
1 <= a < b <= inf.  The norm built from it, sup_p |f|_p / psi(p), divides
by psi, so psi must be finite and positive on the p-grid it is evaluated
on; no bound needs psi >= 1.  The norm only ever needs point evaluation,
so a function is stored as a vectorized evaluator plus its support
endpoints.  ``psi(p)`` is the one check of support, finiteness and
positivity, and every layer evaluates psi on its grid through it; the raw
``psi.eval`` is only for points between checked ones.  Closed forms
(constant, power, p/(p-1), p/(p-kappa), tabulated) are provided as
constructors.  The transforms used by the maximal inequalities (the kappa
corrections, the Doob and Fourier weights) are each psi times a closed-form
factor, built by `product_psi` on the intersection of the two supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "PsiFunction",
    "PGrid",
    "LogConvexityReport",
    "constant",
    "power",
    "doob_factor",
    "ratio",
    "from_table",
    "from_formula",
    "product_psi",
    "psi_kappa",
    "psi_kappa12",
    "psi_doob",
    "psi_fourier",
    "check_log_convex",
]


@dataclass(frozen=True)
class PsiFunction:
    """A generating function: support endpoints plus a vectorized evaluator."""

    a: float
    b: float
    eval: Callable[[np.ndarray], np.ndarray]
    label: str = "psi"

    def __post_init__(self):
        if not (self.a >= 1.0):
            raise DomainError(f"lower endpoint a={self.a} must be >= 1")
        if not (self.b > self.a):
            raise DomainError(f"need a < b, got a={self.a}, b={self.b}")

    def __call__(self, p):
        """Evaluate at p (scalar or array), requiring p inside the open support
        and every value finite and positive; one value may serve every p."""
        arr = self.check_support(p)
        with np.errstate(all="ignore"):
            out = np.asarray(self.eval(arr), dtype=float)
        if out.shape != arr.shape:
            out = np.broadcast_to(out, arr.shape)
        ok = (out > 0.0) & (out < math.inf)
        if not ok.all():
            i = np.flatnonzero(~ok)[0]
            raise DomainError(f"{self.label}(p) = {out.flat[i]} at p = {arr.flat[i]:g}; "
                              f"psi must be finite and positive on its grid")
        return float(out) if arr.ndim == 0 else out

    def check_support(self, p) -> np.ndarray:
        """p as a float array, raising DomainError unless every value lies in
        the open support (a, b).  NaN lies in no interval, so it fails."""
        arr = np.asarray(p, dtype=float)
        if not (np.all(arr > self.a) and np.all(arr < self.b)):
            bad = float(arr[~((arr > self.a) & (arr < self.b))].flat[0])
            raise DomainError(
                f"p={bad!r} outside open support ({self.a}, {self.b}) of {self.label}"
            )
        return arr


@dataclass(frozen=True)
class PGrid:
    """Finite p-grid used to discretize sup over the open interval.

    On an unbounded support `log_spaced` and `inside` stop the grid at
    ``p_max_cap``; the true supremum may then be approached only in the limit
    p -> inf, which callers of edge-monotone quantities (e.g. delta^{1/p}
    with delta < 1) must expect.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.size < 2:
            raise DomainError("a p-grid needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise DomainError("p-grid points must be strictly increasing")

    @staticmethod
    def log_spaced(lo: float, hi: float, n: int = 128, p_max_cap: float = 200.0) -> "PGrid":
        hi = min(hi, p_max_cap)
        if not (0 < lo < hi):
            raise DomainError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
        return PGrid(np.geomspace(lo, hi, n))

    @staticmethod
    def inside(psi: PsiFunction, n: int = 128, p_max_cap: float = 200.0) -> "PGrid":
        """Log-spaced grid strictly inside the support of psi, 1e-3 of the
        support's width (or of max(1, a) when unbounded) from each end."""
        a, b = psi.a, psi.b
        if math.isinf(b):
            lo = a + 1e-3 * max(1.0, a)
            hi = p_max_cap
        else:
            lo = a + 1e-3 * (b - a)
            hi = b - 1e-3 * (b - a)
        return PGrid.log_spaced(lo, hi, n, p_max_cap=p_max_cap)

    def with_extra(self, extra) -> np.ndarray:
        """Grid points merged with extra candidates, sorted and deduplicated."""
        if extra is None:
            return self.points
        merged = np.union1d(self.points, np.asarray(extra, dtype=float))
        return merged


# ---------------------------------------------------------------------------
# constructors


def constant() -> PsiFunction:
    return PsiFunction(1.0, math.inf, lambda p: np.ones_like(np.asarray(p, float)),
                       label="const[1]")


def power(beta: float, a: float = 1.0) -> PsiFunction:
    """psi(p) = p^beta on (a, inf)."""
    if not math.isfinite(beta):
        raise DomainError(f"power exponent beta={beta} must be finite")
    return PsiFunction(a, math.inf, lambda p: np.asarray(p, float) ** beta,
                       label=f"power[{beta:g}]")


def doob_factor() -> PsiFunction:
    """psi(p) = p/(p-1) on (1, inf), the weight of the Doob inequality."""
    return PsiFunction(1.0, math.inf, lambda p: np.asarray(p, float) / (np.asarray(p, float) - 1.0),
                       label="doob_factor")


def ratio(kappa: float) -> PsiFunction:
    """psi(p) = p/(p-kappa) on (max(kappa,1), inf)."""
    if kappa <= 0:
        raise DomainError("ratio constructor needs kappa > 0")
    a = max(kappa, 1.0)
    return PsiFunction(a, math.inf, lambda p: np.asarray(p, float) / (np.asarray(p, float) - kappa),
                       label=f"ratio[{kappa:g}]")


def from_table(points, values) -> PsiFunction:
    """Piecewise-linear-in-log interpolation of tabulated values.

    Interpolates log psi linearly in p between the tabulated points; the
    support is the tabulated range.
    """
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    if pts.size != vals.size or pts.size < 2:
        raise DomainError("table needs >= 2 matching points and values")
    if not np.all(np.diff(pts) > 0):
        raise DomainError("table points must be strictly increasing")
    if not np.all(vals > 0):
        raise DomainError("table values must be positive")
    logv = np.log(vals)
    return PsiFunction(pts[0], pts[-1],
                       lambda p: np.exp(np.interp(np.asarray(p, float), pts, logv)),
                       label="table")


def from_formula(fn, a: float, b: float, label: str = "formula") -> PsiFunction:
    """Wrap an arbitrary vectorized formula as a generating function."""
    return PsiFunction(a, b, lambda p: np.asarray(fn(np.asarray(p, float)), dtype=float),
                       label=label)


# ---------------------------------------------------------------------------
# transforms


def _intersect(psi: PsiFunction, nu: PsiFunction) -> tuple[float, float]:
    a = max(psi.a, nu.a)
    b = min(psi.b, nu.b)
    if a >= b:
        raise DomainError(
            f"supports ({psi.a},{psi.b}) and ({nu.a},{nu.b}) have empty intersection"
        )
    return a, b


def product_psi(psi: PsiFunction, nu: PsiFunction) -> PsiFunction:
    """Pointwise product on the intersection of the supports."""
    a, b = _intersect(psi, nu)
    return PsiFunction(a, b, lambda p: psi.eval(np.asarray(p, float)) * nu.eval(np.asarray(p, float)),
                       label=f"({psi.label})*({nu.label})")


def psi_kappa(psi: PsiFunction, kappa: float) -> PsiFunction:
    """psi(p) * p/(p - kappa) on the support restricted to p > max(kappa, 1)."""
    return product_psi(psi, ratio(kappa))


def psi_kappa12(psi: PsiFunction, kappa1: float, kappa2: float) -> PsiFunction:
    """Correction for polynomial-times-logarithmic entropy growth.

    For kappa2 < kappa1 the factor is [p/(p-kappa1)]^(1-kappa2/kappa1); for
    kappa2 = kappa1 it is max(|log(p-kappa1)/log p|, 1); for kappa2 > kappa1
    no correction is needed and psi itself is returned.  The factor lives on
    p > max(kappa1, 1).
    """
    if kappa1 <= 0:
        raise DomainError("psi_kappa12 needs kappa1 > 0")
    if kappa2 > kappa1:
        return psi
    if kappa2 == kappa1:
        factor = from_formula(lambda p: np.maximum(np.abs(np.log(p - kappa1) / np.log(p)), 1.0),
                              max(kappa1, 1.0), math.inf, label=f"log_ratio[{kappa1:g}]")
    else:
        expo = 1.0 - kappa2 / kappa1
        factor = from_formula(lambda p: (p / (p - kappa1)) ** expo, max(kappa1, 1.0), math.inf,
                              label=f"ratio[{kappa1:g}]^{expo:g}")
    return product_psi(psi, factor)


def psi_doob(psi: PsiFunction) -> PsiFunction:
    """psi(p) * p/(p - 1), the weight of the Doob inequality."""
    return product_psi(psi, doob_factor())


def psi_fourier(psi: PsiFunction) -> PsiFunction:
    """psi(p) * p^4/(p - 1)^2, the weight for the Fourier maximal function."""
    return product_psi(psi, from_formula(lambda p: p ** 4 / (p - 1.0) ** 2, 1.0, math.inf,
                                         label="fourier_factor"))


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class LogConvexityReport:
    passed: bool
    worst_violation: float
    worst_triple: tuple[float, float, float] | None


def check_log_convex(psi: PsiFunction, grid: PGrid) -> LogConvexityReport:
    """Midpoint log-convexity of psi in the variable u = 1/p over grid triples.

    Every moment function p -> |f|_p obeys Lyapunov's inequality
    |f|_r <= |f|_p^(1-lam) |f|_q^lam when 1/r = (1-lam)/p + lam/q, i.e. its
    log is convex in 1/p, and suprema of moment functions inherit this.  The
    check measures the worst relative excess of psi(r) over the interpolated
    geometric bound across all grid triples p_i < p_j < p_k.  Violations are
    reported, not raised: computed natural functions carry sampling noise.
    """
    pts = grid.points
    logv = np.log(psi(pts))
    u = 1.0 / pts
    n = pts.size
    worst = -math.inf
    worst_triple = None
    for i in range(n - 2):
        for k in range(i + 2, n):
            js = np.arange(i + 1, k)
            lam = (u[js] - u[i]) / (u[k] - u[i])
            interp = (1.0 - lam) * logv[i] + lam * logv[k]
            excess = logv[js] - interp
            jmax = int(np.argmax(excess))
            if excess[jmax] > worst:
                worst = float(excess[jmax])
                worst_triple = (float(pts[i]), float(pts[js[jmax]]), float(pts[k]))
    violation = math.expm1(worst)
    return LogConvexityReport(passed=violation <= 1e-9, worst_violation=violation,
                              worst_triple=worst_triple)
