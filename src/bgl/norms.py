"""L_p and grand Lebesgue norms on weighted-atom spaces.

The grand Lebesgue norm sup_p |f|_p / psi(p) over an open interval is
discretized as a grid maximum followed by a batched rescan of the bracket
around the grid argmax; the refined point is carried in the result so that
bound/exact comparisons can evaluate both sides at the same p.  L_p norms
factor out max|f| first, so every power is of a ratio in [0, 1] and
exponents up to the default cap p = 200 (and beyond) stay in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    EvaluationError,
    PreconditionError,
)
from .measure import DiscreteMeasureSpace, FunctionFamily, SimpleFunction, indicator
from .psi import PGrid, PsiFunction

__all__ = [
    "NormResult",
    "lp_norm",
    "lp_norm_matrix",
    "bgl_norm",
    "fundamental_function",
    "natural_psi",
    "MriNormSpec",
    "mri_norm",
    "FatouReport",
    "fatou_check",
    "IndicatorCheck",
    "indicator_norm_check",
    "assemble_subset",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# byte budget of one chunk's power tensor in `lp_norm_matrix`: the kernel's
# working memory stops growing with the row count.  On a 4,560 x 256 x 64
# call, budgets of 1-16 MiB ran equally fast and 32 MiB or more slower.
_KERNEL_BYTES = 8 << 20


def lp_norm(f: SimpleFunction, p) -> float | np.ndarray:
    """(sum_i w_i |f_i|^p)^(1/p), vectorized over p.

    Factoring out max|f_i| keeps |f_i|^p representable for large p.
    """
    ps = np.asarray(p, dtype=float)
    if np.any(ps < 1.0):
        raise DomainError(f"p must be >= 1, got {p}")
    out = lp_norm_matrix(f.values[None, :], f.space.weights, np.atleast_1d(ps))[0]
    return float(out[0]) if ps.ndim == 0 else out


def lp_norm_matrix(values: np.ndarray, weights: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """L_p norms of many functions at many exponents in one pass.

    ``values`` is (n_functions, n_atoms); the result is (n_functions, n_p).
    After max-factoring every ratio lies in [0, 1] and the max atom adds its
    full weight, so the weighted sum of powers neither overflows nor
    underflows to zero.  Rows are independent, so they are walked in chunks
    whose power tensor stays under ``_KERNEL_BYTES`` (one row at least).
    """
    av = np.abs(np.asarray(values, dtype=float))
    out = np.zeros((av.shape[0], ps.size))
    step = max(1, _KERNEL_BYTES // (8 * max(1, ps.size * av.shape[1])))
    for lo in range(0, av.shape[0], step):
        chunk = av[lo:lo + step]
        m = chunk.max(axis=1)
        live = m > 0.0
        ratios = chunk[live] / m[live, None]
        sums = np.power(ratios[:, None, :], ps[None, :, None]) @ np.asarray(weights, dtype=float)
        out[lo:lo + step][live] = m[live, None] * sums ** (1.0 / ps[None, :])
    return out


@dataclass(frozen=True)
class NormResult:
    """A grid supremum together with the p at which it was attained."""

    value: float
    p_star: float

    def __float__(self):
        return self.value


def bgl_norm(f: SimpleFunction, psi: PsiFunction, grid: PGrid,
             refine: bool = True) -> NormResult:
    """Grand Lebesgue norm sup_p |f|_p / psi(p), discretized on the grid.

    The refined argmax is carried in the result; callers comparing two norms
    pass it to the other side (as `fundamental_function`'s extra point) so
    the comparison is evaluated on a common point set.
    """
    if not psi.contains_grid(grid):
        raise DomainError(f"grid not inside support ({psi.a}, {psi.b}) of {psi.label}")
    pts = grid.points
    ratios = lp_norm(f, pts) / psi.eval(pts)
    j = int(np.argmax(ratios))
    best_p, best_v = float(pts[j]), float(ratios[j])
    if refine:
        # rescan the bracket around the argmax, 33 points per kernel call,
        # narrowing to the neighbours of each round's argmax until 1e-6 wide
        lo = float(pts[max(j - 1, 0)])
        hi = float(pts[min(j + 1, pts.size - 1)])
        while hi - lo > 1e-6:
            xs = np.linspace(lo, hi, 33)
            vals = lp_norm(f, xs) / psi.eval(xs)
            k = int(np.argmax(vals))
            if vals[k] > best_v:
                best_p, best_v = float(xs[k]), float(vals[k])
            lo, hi = float(xs[max(k - 1, 0)]), float(xs[min(k + 1, xs.size - 1)])
    return NormResult(best_v, best_p)


def fundamental_function(psi: PsiFunction, delta: float, grid: PGrid,
                         extra_points=None) -> float:
    """sup_p delta^{1/p} / psi(p) on the grid, the norm of a measure-delta indicator.

    ``extra_points`` are additional candidate p values inside the support.
    Shares no code with bgl_norm, including the refinement step: the
    indicator cross-check relies on the two computations being independent.
    """
    if delta <= 0:
        raise DomainError("delta must be positive")
    if not psi.contains_grid(grid):
        raise DomainError(f"grid not inside support ({psi.a}, {psi.b}) of {psi.label}")
    pts = grid.with_extra(extra_points)
    if np.any(pts <= psi.a) or np.any(pts >= psi.b):
        raise DomainError("extra points outside the support of psi")
    vals = np.power(delta, 1.0 / pts) / psi.eval(pts)
    j = int(np.argmax(vals))
    a = float(pts[max(j - 1, 0)])
    b = float(pts[min(j + 1, pts.size - 1)])
    # deliberate duplicate of the golden-section step: see docstring.  Every
    # bracket point lies between two points checked against the support
    # above, so the loop evaluates psi.eval without psi's own check.
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    h = lambda p: delta ** (1.0 / p) / float(psi.eval(p))
    fc, fd = h(c), h(d)
    while (b - a) > 1e-6:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = h(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = h(d)
    return max(float(vals[j]), h(0.5 * (a + b)))


def natural_psi(family: FunctionFamily, grid: PGrid) -> PsiFunction:
    """The tightest generating function for a family: psi0(p) = max_t |Y(t)|_p.

    The evaluator closes over the family's value matrix, so psi0 is exact at
    every p (the grid only certifies finiteness up front).  By construction
    the family has sup_t ||Y(t)||_{G(psi0)} = 1 on any grid inside the support.
    """
    if family.m < 1:
        raise DomainError("empty family")
    values = family.values_matrix()
    weights = family.space.weights
    probe = lp_norm_matrix(values, weights, grid.points)
    if not np.all(np.isfinite(probe)):
        raise DomainError("family has non-finite L_p norms on the grid")

    def ev(p):
        arr = np.atleast_1d(np.asarray(p, dtype=float))
        vals = lp_norm_matrix(values, weights, arr).max(axis=0)
        return vals if np.asarray(p).ndim else vals[0]

    return PsiFunction(1.0, math.inf, ev, label=f"natural[m={family.m}]")


@dataclass(frozen=True)
class MriNormSpec:
    """Norm on the moment curve p -> |f|_p: either the sup (BGL) form or a
    weighted-integral form [sum_j w_j (|f|_{x_j} / x_j^alpha)^q]^(1/q)."""

    kind: str  # "sup" | "quadrature"
    psi: PsiFunction | None = None
    grid: PGrid | None = None
    q: float = 1.0
    alpha: float = 0.0
    nodes: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "sup":
            if self.psi is None or self.grid is None:
                raise DomainError("sup kind needs psi and grid")
        elif self.kind == "quadrature":
            if self.q < 1.0:
                raise DomainError("quadrature exponent q must be >= 1")
            nodes = np.asarray(self.nodes, dtype=float)
            weights = np.asarray(self.weights, dtype=float)
            object.__setattr__(self, "nodes", nodes)
            object.__setattr__(self, "weights", weights)
            if nodes.ndim != 1 or nodes.size == 0 or nodes.shape != weights.shape:
                raise DomainError("nodes and weights must be matching 1-d arrays")
            if np.any(weights < 0):
                raise DomainError("quadrature weights must be nonnegative")
            if np.any(nodes < 1.0):
                raise DomainError("quadrature nodes must satisfy x >= 1")
        else:
            raise DomainError(f"unknown m.r.i. norm kind {self.kind!r}")


def mri_norm(f: SimpleFunction, spec: MriNormSpec) -> float:
    if spec.kind == "sup":
        return bgl_norm(f, spec.psi, spec.grid).value
    h = lp_norm(f, spec.nodes)
    if not np.all(np.isfinite(h)):
        raise EvaluationError("non-finite moment value at a quadrature node")
    terms = (h / spec.nodes ** spec.alpha) ** spec.q
    return float(np.dot(spec.weights, terms) ** (1.0 / spec.q))


@dataclass(frozen=True)
class FatouReport:
    norms: tuple
    limit_norm: float
    terminal_gap: float
    monotone: bool

    @property
    def passed(self) -> bool:
        return self.monotone and self.terminal_gap >= -1e-12


def fatou_check(chain, limit: SimpleFunction, psi: PsiFunction, grid: PGrid) -> FatouReport:
    """Monotone norm convergence along an increasing chain 0 <= f_n <= f_{n+1} <= limit."""
    if len(chain) < 1:
        raise PreconditionError("empty chain")
    prev = None
    for f in chain:
        if np.any(f.values < -1e-15):
            raise PreconditionError("chain elements must be nonnegative")
        if prev is not None and np.any(f.values < prev.values - 1e-12):
            raise PreconditionError("chain is not pointwise nondecreasing")
        prev = f
    if np.any(limit.values < prev.values - 1e-12):
        raise PreconditionError("limit does not dominate the chain")
    norms = tuple(bgl_norm(f, psi, grid).value for f in chain)
    limit_norm = bgl_norm(limit, psi, grid).value
    scale = max(limit_norm, 1.0)
    monotone = bool(np.all(np.diff(norms) >= -1e-12 * scale))
    return FatouReport(norms=norms, limit_norm=limit_norm,
                       terminal_gap=limit_norm - norms[-1], monotone=monotone)


def assemble_subset(space: DiscreteMeasureSpace, delta: float):
    """Greedy subset of atoms with total weight delta (within 1e-9)."""
    idx = []
    acc = 0.0
    for i, w in enumerate(space.weights):
        if acc + w <= delta + 1e-9:
            idx.append(i)
            acc += w
        if acc >= delta - 1e-9:
            break
    if abs(acc - delta) > 1e-9:
        raise ConstructionError(
            f"no atom subset of mass {delta} (greedy reached {acc}, tol 1e-09)"
        )
    return np.asarray(idx, dtype=int), acc


@dataclass(frozen=True)
class IndicatorCheck:
    delta_requested: float
    delta_achieved: float
    norm_direct: float
    norm_formula: float
    rel_diff: float
    passed: bool


def indicator_norm_check(space: DiscreteMeasureSpace, delta: float,
                         psi: PsiFunction, grid: PGrid) -> IndicatorCheck:
    """Cross-check ||I(A)||_{G(psi)} against sup_p mu(A)^{1/p} / psi(p).

    The left side goes through the measure-space norm machinery, the right
    side through the closed fundamental-function formula; they share nothing
    beyond lp_norm, so agreement certifies both (to 1e-9 relative).
    """
    atoms, achieved = assemble_subset(space, delta)
    direct = bgl_norm(indicator(space, atoms), psi, grid).value
    formula = fundamental_function(psi, achieved, grid)
    rel = abs(direct - formula) / max(abs(formula), 1e-300)
    return IndicatorCheck(delta_requested=delta, delta_achieved=achieved,
                          norm_direct=direct, norm_formula=formula,
                          rel_diff=rel, passed=rel <= 1e-9)
