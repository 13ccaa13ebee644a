"""Maximal-inequality bounds for finite function families.

All bounds here dominate the exact supremum norm, which is computable for a
finite family by a pointwise maximum; every report carries both sides plus
the per-level terms so an external checker can re-sum the bound.  Two
conventions run through the module:

* Bounds are computed for the pointwise max of |Y(t)|, which dominates the
  signed sup sup_t Y(t), so no report carries the signed side.
* Each chaining sum adds the level-0 anchor (the largest single-member norm
  in the target space) explicitly.  Without it a singleton family already
  defeats the bare sum.

Every chaining bound is anchor + sum_k eps_{k-1} F(N(eps_k)) + tail for a
level factor F at radii eps_k = D theta^k, D = max(1, diam(T, d)), so that
eps_0 covers T; by homogeneity it is D times the D = 1 sum of d / D.  The
levels stop at the first k with singleton balls or at k_max, whichever
comes first; the tail D theta^k / (1 - theta) * F(N) adds the finer levels
in closed form, with N the last level's count when the levels saturated and
the family size m (valid at every finer level) when k_max was hit first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import SemiMetric, check_theta, covering_profile, family_semimetric
from .errors import DomainError, EvaluationError, ModelMismatchError
from .measure import FunctionFamily, SimpleFunction
from .norms import (
    MriNormSpec,
    bgl_norm,
    fundamental_function,
    grid_sups,
    lp_norm_matrix,
    mri_norm,
)
from .psi import PGrid, PsiFunction, power, product_psi, psi_kappa

__all__ = [
    "abs_sup",
    "PisierResult",
    "pisier_bound",
    "generalized_pisier_bound",
    "ChainingReport",
    "entropy_sum_bound",
    "chained_product_bound",
    "chained_product_bounds",
    "PolyEntropyReport",
    "polynomial_entropy_check",
    "SeriesBoundCase",
    "series_S_beta",
    "OrliczReport",
    "exp_orlicz_bound",
    "MriChainReport",
    "mri_chaining_bound",
]


def abs_sup(family: FunctionFamily) -> SimpleFunction:
    """Pointwise max of |Y(t, x)|, the quantity the bounds actually control."""
    return SimpleFunction(family.space, np.abs(family.values).max(axis=0))


def _lp_norms(family: FunctionFamily, p: float) -> tuple[float, float]:
    """max_t |Y(t)|_p and |max|Y|||_p from one kernel call over the members
    and the pointwise max of |Y|."""
    values = family.values
    rows = np.vstack([values, np.abs(values).max(axis=0)])
    norms = lp_norm_matrix(rows, family.space.weights, np.array([p], dtype=float))[:, 0]
    return float(norms[:-1].max()), float(norms[-1])


class _SlackRatio:
    """slack_ratio = bound / exact, for the reports whose two sides carry
    those names."""

    @property
    def slack_ratio(self) -> float:
        return self.bound / self.exact if self.exact > 0 else math.inf


# ---------------------------------------------------------------------------
# finite-family inequalities


@dataclass(frozen=True)
class PisierResult(_SlackRatio):
    bound: float
    exact: float
    max_member_norm: float


def pisier_bound(family: FunctionFamily, p: float) -> PisierResult:
    """max_j |Y_j|_p * m^{1/p} against the exact norm of the pointwise max."""
    mx, exact = _lp_norms(family, p)
    return PisierResult(
        bound=mx * family.m ** (1.0 / p),
        exact=exact,
        max_member_norm=mx,
    )


@dataclass(frozen=True)
class GeneralizedPisierResult(PisierResult):
    fundamental_value: float
    p_star: float


def generalized_pisier_bound(family: FunctionFamily, psi: PsiFunction,
                             nu: PsiFunction, grid: PGrid) -> GeneralizedPisierResult:
    """max_i ||Y_i||_{G(psi)} * phi(G(nu), m) against ||max|Y|||_{G(psi nu)}.

    The exact side is evaluated first; its refined argmax is fed to the
    bound-side suprema so both sides see a common point set and the pointwise
    inequality chain cannot be flipped by grid discretization.
    """
    exact = bgl_norm(abs_sup(family), product_psi(psi, nu), grid)
    # grid-plus-p_star evaluation suffices for domination; member-level
    # refinement would only enlarge the bound at m times the cost
    pts = grid.with_extra([exact.p_star])
    member = float(grid_sups([family.values], family.space.weights, pts, psi(pts))[0].max())
    phi = fundamental_function(nu, float(family.m), grid, extra_points=[exact.p_star])
    return GeneralizedPisierResult(
        bound=member * phi,
        exact=exact.value,
        max_member_norm=member,
        fundamental_value=phi,
        p_star=exact.p_star,
    )


# ---------------------------------------------------------------------------
# chaining sums


@dataclass(frozen=True)
class ChainingReport:
    bound_value: float
    theta_star: float
    per_level_terms: tuple
    truncation_k: int
    tail_estimate: float
    anchor: float
    exact_sup_norm: float
    saturated: bool

    @property
    def slack_ratio(self) -> float:
        return self.bound_value / self.exact_sup_norm if self.exact_sup_norm > 0 else math.inf

    @property
    def dominates(self) -> bool:
        scale = max(self.exact_sup_norm, 1e-300)
        return self.bound_value >= self.exact_sup_norm - 1e-9 * scale


def _level_sum(metric: SemiMetric, theta: float, k_max: int, factor):
    """Per-level terms (k, D theta^{k-1} F(N_k)) of ``metric`` under the level
    factor F, D = max(1, diameter), the last level k, the tail (rule in the
    module docstring) and whether the levels saturated."""
    diam = max(1.0, metric.diameter)
    profile = covering_profile(metric.scaled(1.0 / diam), theta, k_max)
    terms = tuple((lv.k, diam * theta ** (lv.k - 1) * factor(lv.n_balls))
                  for lv in profile.levels)
    last = profile.levels[-1]
    n_tail = last.n_balls if profile.saturated else metric.size
    tail = diam * theta ** last.k / (1.0 - theta) * factor(n_tail)
    return terms, last.k, tail, profile.saturated


def _chaining_report(metric: SemiMetric, theta: float, k_max: int, factor,
                     anchor: float, exact: float) -> ChainingReport:
    """Anchor plus the level sum under ``factor``, next to the exact side."""
    terms, k_last, tail, saturated = _level_sum(metric, theta, k_max, factor)
    return ChainingReport(
        bound_value=anchor + sum(t for _, t in terms) + tail,
        theta_star=theta,
        per_level_terms=terms,
        truncation_k=k_last,
        tail_estimate=tail,
        anchor=anchor,
        exact_sup_norm=exact,
        saturated=saturated,
    )


def entropy_sum_bound(family: FunctionFamily, p: float, theta: float,
                      k_max: int = 32) -> ChainingReport:
    """Anchor + sum_k theta^{k-1} N^{1/p}(T, d_p, theta^k) + geometric tail."""
    return _chaining_report(family_semimetric(family, p=p), theta, k_max,
                            lambda n: n ** (1.0 / p), *_lp_norms(family, p))


def chained_product_bound(family: FunctionFamily, psi: PsiFunction, nu: PsiFunction,
                          grid: PGrid, theta: float,
                          metric: SemiMetric | None = None) -> ChainingReport:
    """Chaining in the grand Lebesgue scale: anchor plus
    sum_k theta^{k-1} phi(G(nu), N(T, d_psi, theta^k)) plus tail, dominating
    ||max|Y|||_{G(psi nu)}.  The one-theta case of `chained_product_bounds`.
    """
    return chained_product_bounds(family, psi, nu, grid, (theta,), metric=metric)[0]


def chained_product_bounds(family: FunctionFamily, psi: PsiFunction, nu: PsiFunction,
                           grid: PGrid, thetas, k_max: int = 32,
                           metric: SemiMetric | None = None) -> tuple[ChainingReport, ...]:
    """`chained_product_bound` at each theta, in order.

    The exact side, the anchor, the d_psi metric and phi(G(nu), N) per
    count N do not depend on theta, so they are computed once for all
    thetas.  ``metric`` may carry a precomputed d_psi matrix (it depends
    only on the family, psi, and grid, so callers sweeping nu reuse it).
    """
    if metric is None:
        metric = family_semimetric(family, psi=psi, grid=grid)
    zeta = product_psi(psi, nu)
    exact = bgl_norm(abs_sup(family), zeta, grid)
    pts = grid.with_extra([exact.p_star])
    anchor = float(grid_sups([family.values], family.space.weights, pts, zeta(pts))[0].max())
    phi = {}

    def factor(n):
        if n not in phi:
            phi[n] = fundamental_function(nu, float(n), grid, extra_points=[exact.p_star])
        return phi[n]

    return tuple(_chaining_report(metric, theta, k_max, factor, anchor,
                                  exact.value) for theta in thetas)


# ---------------------------------------------------------------------------
# polynomial entropy (N <= C eps^-kappa) consistency


@dataclass(frozen=True)
class PolyEntropyReport:
    c_fit: float
    kappa: float
    ratios: tuple
    spread: float
    passed: bool


def polynomial_entropy_check(family: FunctionFamily, psi: PsiFunction, kappa: float,
                             profile, p_grid, theta: float = 0.5) -> PolyEntropyReport:
    """Under N(T, d_psi, eps) <= C eps^-kappa, the per-p chaining bound should
    stay within a p-independent multiple of psi(p) * p/(p - kappa).

    Fits C as the geometric mean of N * eps^kappa over informative levels and
    rejects profiles that deviate from the fitted law by more than 10x; then
    reports the spread of r(p) = bound(p) / psi^(kappa)(p) over the p grid,
    which passes below 50.
    """
    informative = [lv for lv in profile.levels if lv.n_balls > 1]
    if informative:
        logs = [math.log(lv.n_balls * lv.eps ** kappa) for lv in informative]
        c_fit = math.exp(sum(logs) / len(logs))
        worst = max(lv.n_balls * lv.eps ** kappa for lv in informative)
        if worst > 10.0 * c_fit:
            raise ModelMismatchError(
                f"covering profile deviates from the fitted polynomial law by "
                f"{worst / c_fit:.2f}x"
            )
    else:
        c_fit = 1.0
    pts = np.asarray(p_grid, dtype=float)
    scale = psi_kappa(psi, kappa)(pts)
    ratios = [(float(p), entropy_sum_bound(family, float(p), theta).bound_value / float(w))
              for p, w in zip(pts, scale)]
    vals = [r for _, r in ratios]
    spread = max(vals) / min(vals)
    return PolyEntropyReport(c_fit=c_fit, kappa=kappa, ratios=tuple(ratios),
                             spread=spread, passed=spread < 50.0)


# ---------------------------------------------------------------------------
# the elementary series sum_k q^k k^beta


@dataclass(frozen=True)
class SeriesBoundCase:
    beta: float
    q: float
    s_value: float
    rhs_value: float
    constant_used: float


def series_S_beta(q: float, beta: float) -> SeriesBoundCase:
    """Partial summation of S_beta(q) = sum_{k>=1} q^k k^beta until a
    certified tail bound falls below 1e-12, compared against the reference
    rate for its beta regime: (1-q)^(-1-beta) for beta > -1, |log(1-q)| for
    beta = -1, 1 for beta < -1.
    """
    if not (0.5 <= q < 1.0):
        raise DomainError("q must lie in [1/2, 1)")
    s = 0.0
    k = 1
    while True:
        s += q ** k * k ** beta
        if beta <= 0:
            tail = (k + 1) ** beta * q ** (k + 1) / (1.0 - q)
        else:
            r = q * ((k + 2) / (k + 1)) ** beta
            tail = math.inf if r >= 1.0 else q ** (k + 1) * (k + 1) ** beta / (1.0 - r)
        if tail < 1e-12:
            break
        k += 1
        if k > 10_000_000:
            raise EvaluationError("series did not reach the requested tolerance")
    if beta > -1.0:
        rhs = (1.0 - q) ** (-1.0 - beta)
    elif beta == -1.0:
        rhs = abs(math.log(1.0 - q))
    else:
        rhs = 1.0
    return SeriesBoundCase(beta=beta, q=q, s_value=s, rhs_value=rhs,
                           constant_used=s / rhs)


# ---------------------------------------------------------------------------
# exponential Orlicz scale (norms sup_{p>=a} |f|_p / p^beta)


@dataclass(frozen=True)
class OrliczReport(_SlackRatio):
    bound: float
    exact: float
    max_member_norm: float
    per_level_terms: tuple
    tail_estimate: float
    truncation_k: int
    degenerate_entropy: bool


def exp_orlicz_bound(family: FunctionFamily, a: float, beta1: float, beta2: float,
                     theta: float, k_max: int = 32) -> OrliczReport:
    """Entropy bound in the exponential Orlicz scale.

    Both norms are realized as grand Lebesgue norms with psi(p) = p^beta on a
    96-point grid above a, capped at p = 200.  The level radii are taken
    relative to the family diameter (eps_k = diam * theta^k) so that
    rescaling the family rescales both sides identically; a singleton or
    two-point family makes the entropy factor vanish at coarse levels, which
    is flagged, not patched.
    """
    if not (0.0 < beta1 < beta2):
        raise DomainError("need 0 < beta1 < beta2")
    check_theta(theta)
    gamma = beta2 - beta1
    psi1 = power(beta1, a=a)
    psi2 = power(beta2, a=a)
    grid = PGrid.inside(psi1, n=96)
    member = max(bgl_norm(f, psi1, grid).value for f in family.members)
    exact = bgl_norm(abs_sup(family), psi2, grid).value
    metric = family_semimetric(family, psi=psi1, grid=grid)
    diam = metric.diameter
    if diam == 0.0:
        return OrliczReport(bound=0.0, exact=exact, max_member_norm=member,
                            per_level_terms=(), tail_estimate=0.0, truncation_k=0,
                            degenerate_entropy=True)
    terms, k, tail, _ = _level_sum(metric.scaled(1.0 / diam), theta, k_max,
                                   lambda n: math.log(n) ** gamma)
    return OrliczReport(
        bound=member * (sum(t for _, t in terms) + tail),
        exact=exact,
        max_member_norm=member,
        per_level_terms=terms,
        tail_estimate=tail,
        truncation_k=k,
        degenerate_entropy=all(t == 0.0 for _, t in terms) and tail == 0.0,
    )


# ---------------------------------------------------------------------------
# moment rearrangement invariant norms


@dataclass(frozen=True)
class MriChainReport(_SlackRatio):
    bound: float
    exact: float
    per_node: tuple
    passed: bool


def mri_chaining_bound(family: FunctionFamily, spec: MriNormSpec,
                       theta: float) -> MriChainReport:
    """Push the per-p chaining bound g(p) through an m.r.i. norm: since
    |max|Y||_p <= g(p) pointwise and the norm is monotone, <g> dominates the
    m.r.i. norm of the pointwise max (checked to 1e-9 relative)."""
    sup_f = abs_sup(family)
    xs = spec.nodes if spec.kind == "quadrature" else spec.grid.points
    scale = spec.psi(xs) if spec.kind == "sup" else None
    g = np.array([entropy_sum_bound(family, float(x), theta).bound_value for x in xs])
    if spec.kind == "quadrature":
        bound = float(np.dot(spec.weights, (g / xs ** spec.alpha) ** spec.q)
                      ** (1.0 / spec.q))
        exact = mri_norm(sup_f, spec)
    else:
        bound = float(np.max(g / scale))
        # grid-consistent evaluation: g is only known on the grid points
        exact = float(grid_sups([sup_f.values[None, :]], family.space.weights, xs, scale)[0][0])
    per_node = tuple(zip([float(x) for x in xs], [float(v) for v in g]))
    passed = exact <= bound + 1e-9 * max(bound, 1.0)
    return MriChainReport(bound=bound, exact=exact, per_node=per_node, passed=passed)
