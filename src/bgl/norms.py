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
    "lp_norm_cells",
    "grid_sups",
    "bgl_norm",
    "fundamental_function",
    "natural_psi",
    "MriNormSpec",
    "mri_norm",
    "FatouReport",
    "fatou_check",
    "IndicatorCheck",
    "indicator_norm_check",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# byte budget of one chunk's power tensor in `lp_norm_matrix`: the kernel's
# working memory stops growing with the row count.  On a 4,560 x 256 x 64
# call, budgets of 1-16 MiB ran equally fast and 32 MiB or more slower.
_KERNEL_BYTES = 8 << 20

# atoms per dot product in `_norms`: OpenBLAS `ddot` was seen to split
# vectors above 10,000 elements across threads, changing their last bit
_DOT_BLOCK = 8192

# `grid_sups` evaluates every _COARSE_STEP-th column of a row block first.
# With 64 p, random families need only those columns (7.8% of the cells at
# a step of 16, 14.1% at 8); a random trigonometric series needs 46% of the
# cells at 16 and 36% at 8
_COARSE_STEP = 16


def lp_norm(f: SimpleFunction, p) -> float | np.ndarray:
    """(sum_i w_i |f_i|^p)^(1/p), vectorized over p.

    Factoring out max|f_i| keeps |f_i|^p representable for large p.
    """
    ps = np.asarray(p, dtype=float)
    out = lp_norm_matrix(f.values[None, :], f.space.weights, np.atleast_1d(ps))[0]
    return float(out[0]) if ps.ndim == 0 else out


def lp_norm_matrix(values: np.ndarray, weights: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """L_p norms of many functions at many exponents in one pass.

    ``values`` is (n_functions, n_atoms); the result is (n_functions, n_p).
    After max-factoring every ratio lies in [0, 1] and the max atom adds its
    full weight, so the weighted sum of powers neither overflows nor
    underflows to zero.  Each cell is one dot product of its row's powers
    with the weights, so it depends only on its row and its p: any subset of
    rows or of ``ps``, and any `lp_norm_cells` gather, gets bit-identical
    norms.  Rows are walked in chunks whose power tensor stays under
    ``_KERNEL_BYTES``; a row wider than that is walked in exponent chunks
    (one cell at least).  Raises DomainError for p < 1 and
    for a row holding NaN or inf, which the row max (NaN propagates through
    it) already exposes.
    """
    _check_p(ps)
    av = np.abs(np.ascontiguousarray(values, dtype=float))
    w = np.asarray(weights, dtype=float)
    out = np.empty((av.shape[0], ps.size))
    cells = max(1, _KERNEL_BYTES // (8 * max(1, av.shape[1])))
    step, cols = max(1, cells // max(1, ps.size)), max(1, min(cells, ps.size))
    for lo in range(0, av.shape[0], step):
        m, ratios = _scaled(av[lo:lo + step])
        for c in range(0, ps.size, cols):
            out[lo:lo + step, c:c + cols] = _norms(m, ratios[:, None, :], w,
                                                   ps[None, c:c + cols])
    return out


def lp_norm_cells(values: np.ndarray, weights: np.ndarray, rows: np.ndarray,
                  ps: np.ndarray) -> np.ndarray:
    """The flat cells |values[rows[k]]|_{ps[k]}, each bit-identical to its
    cell of `lp_norm_matrix`: the same kernel body on a gather of ratio rows
    and exponents, chunked under the same byte budget."""
    _check_p(ps)
    m, ratios = _scaled(np.abs(np.ascontiguousarray(values, dtype=float)))
    w = np.asarray(weights, dtype=float)
    out = np.empty(ps.size)
    step = max(1, _KERNEL_BYTES // (8 * max(1, ratios.shape[1])))
    for lo in range(0, ps.size, step):
        idx = rows[lo:lo + step]
        out[lo:lo + step] = _norms(m[idx, 0], ratios[idx], w, ps[lo:lo + step])
    return out


def grid_sups(blocks, weights: np.ndarray, pts: np.ndarray, scale: np.ndarray) -> list:
    """Per row block, ``(lp_norm_matrix(block, weights, pts) / scale).max(axis=1)``
    bit for bit, from only the cells that can reach a row's max.

    ``pts`` is sorted; ``blocks`` is read one at a time.  By Hölder
    interpolation s -> log |f|_{1/s} is convex, so between two evaluated
    points the chord in s = 1/p bounds log |f|_p from above.  Each block
    evaluates the coarse columns (every `_COARSE_STEP`-th point and the
    last), then gathers (`lp_norm_cells`, the kernel's own cells) each other
    cell whose chord bound times 1 + 1e-12 reaches its row's max so far.  A
    zero row is 0 at every p; a chord through a norm below the smallest
    normal float (whose relative error is unbounded) prunes nothing.
    """
    last = pts.size - 1
    coarse = np.append(np.arange(0, last, _COARSE_STEP), last)
    fine = np.flatnonzero(np.arange(last) % _COARSE_STEP)
    # fine column j lies between coarse[lo] < j < coarse[lo + 1], at chord
    # weight t of the way from the first to the second in s = 1/p
    lo = fine // _COARSE_STEP
    s = 1.0 / pts
    t = (s[coarse[lo]] - s[fine]) / (s[coarse[lo]] - s[coarse[lo + 1]])
    out = []
    for rows in blocks:
        raw = lp_norm_matrix(rows, weights, pts[coarse])
        best = (raw / scale[coarse]).max(axis=1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logd = np.log(np.where(raw >= np.finfo(float).tiny, raw, 0.0))
            chord = (1.0 - t) * logd[:, lo] + t * logd[:, lo + 1]
            need = ~np.isfinite(chord) | (np.exp(chord) / scale[fine] * (1.0 + 1e-12)
                                          >= best[:, None])
        r, c = np.nonzero(need & rows.any(axis=1)[:, None])
        if r.size:
            c = fine[c]
            np.maximum.at(best, r, lp_norm_cells(rows, weights, r, pts[c]) / scale[c])
        out.append(best)
    return out


def _check_p(ps: np.ndarray) -> None:
    if ps.size and not ps.min() >= 1.0:
        raise DomainError(f"p must be >= 1, got {ps.min()}")


def _scaled(av: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row maxima (as a column) and the rows divided by them."""
    m = av.max(axis=1, keepdims=True)
    if not np.isfinite(m).all():
        raise DomainError("L_p norm of a function with a NaN or infinite value")
    # a zero row is divided by 1 and comes out 0 at every p
    return m, av / np.where(m > 0.0, m, 1.0)


def _norms(m: np.ndarray, ratios: np.ndarray, w: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """m * (sum_k w_k ratios_k^p)^(1/p), ``ratios`` (..., atoms) broadcast
    against ``ps`` (...); `np.vecdot` reduces each cell with its own dot
    product, where a matmul would block several p columns together, and
    adds the dots of its `_DOT_BLOCK`-atom blocks in order.

    numpy squares (and roots at 1/2) exactly only when the exponent arrives
    as a stride-0 scalar, and otherwise takes its SIMD pow, which on AVX-512
    differs from x*x and sqrt on about 5% of inputs.  So p = 2 cells are
    always squared and rooted exactly, whatever the call's shape; every
    other cell keeps its pow bits."""
    two = ps == 2.0
    squared = np.count_nonzero(two) > 0
    powers = np.power(ratios, ps[..., None])
    if squared:
        np.multiply(ratios, ratios, out=powers, where=two[..., None])
    sums = np.vecdot(powers[..., :_DOT_BLOCK], w[:_DOT_BLOCK])
    for lo in range(_DOT_BLOCK, w.size, _DOT_BLOCK):
        sums += np.vecdot(powers[..., lo:lo + _DOT_BLOCK], w[lo:lo + _DOT_BLOCK])
    roots = sums ** (1.0 / ps)
    if squared:
        np.sqrt(sums, out=roots, where=two)
    return m * roots


@dataclass(frozen=True)
class NormResult:
    """A grid supremum together with the p at which it was attained."""

    value: float
    p_star: float


def bgl_norm(f: SimpleFunction, psi: PsiFunction, grid: PGrid) -> NormResult:
    """Grand Lebesgue norm sup_p |f|_p / psi(p): the grid max, refined
    around its argmax.  The refined argmax is carried in the result; callers
    comparing two norms pass it to the other side (as `fundamental_function`'s
    extra point) so the comparison is evaluated on a common point set.
    """
    pts = psi.check_support(grid.points)
    ratios = lp_norm(f, pts) / psi.eval(pts)
    j = int(np.argmax(ratios))
    best_p, best_v = float(pts[j]), float(ratios[j])
    # rescan the bracket around the argmax, 33 points per kernel call,
    # narrowing to the neighbours of each round's argmax until 1e-6 wide, or
    # no narrower: near p = 1e10 adjacent doubles lie 1.9e-6 apart
    lo = float(pts[max(j - 1, 0)])
    hi = float(pts[min(j + 1, pts.size - 1)])
    width = math.inf
    while width > hi - lo > 1e-6:
        width = hi - lo
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
    if not delta > 0:
        raise DomainError("delta must be positive")
    pts = psi.check_support(grid.with_extra(extra_points))
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
    # until 1e-6 wide, or no narrower: near p = 1e10 doubles lie 1.9e-6 apart
    width = math.inf
    while width > b - a > 1e-6:
        width = b - a
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
    every p; the grid certifies up front that psi0 is finite and positive
    (a family of zero members has no natural psi).  By construction the
    family has sup_t ||Y(t)||_{G(psi0)} = 1 on any grid inside the support.

    The evaluator does only the work its answer depends on, and every value
    is the one the full kernel call would give, bit for bit:

    * every grid point of a request is read from the grid table;
    * by Lyapunov's inequality n_t(p) = |Y(t)|_p M^(-1/p), M the total mass,
      is nondecreasing in p.  For the off-grid points of a request, all
      inside [g_i, g_j], g_i and g_j grid points, member t can attain the
      max only if n_t(g_j) >= max_s n_s(g_i); the others are not evaluated.
      The margin 1e-12 is over 1000x the kernel's error.
    """
    values = family.values
    weights = family.space.weights
    pts = grid.points
    probe = lp_norm_matrix(values, weights, pts)
    top = probe.max(axis=0)
    if not np.all(np.isfinite(top)):
        raise DomainError("family has non-finite L_p norms on the grid")
    if not np.all(top > 0.0):
        raise DomainError("family has a zero L_p norm max on the grid (all members zero)")
    lyap = probe * family.space.total_mass ** (-1.0 / pts)

    def ev(p):
        arr = np.atleast_1d(np.asarray(p, dtype=float))
        k = np.minimum(np.searchsorted(pts, arr), pts.size - 1)
        on = pts[k] == arr
        vals = top[k]
        if not on.all():
            off = arr[~on]
            i = np.searchsorted(pts, off.min(), side="right") - 1
            j = np.searchsorted(pts, off.max(), side="left")
            rows = values
            if i >= 0 and j < pts.size:
                rows = values[lyap[:, j] >= lyap[:, i].max() * (1.0 - 1e-12)]
            vals[~on] = lp_norm_matrix(rows, weights, off).max(axis=0)
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
            # each check is written so that a NaN fails it
            if not (math.isfinite(self.q) and self.q >= 1.0):
                raise DomainError(f"quadrature exponent q must be finite and >= 1, got {self.q}")
            if not math.isfinite(self.alpha):
                raise DomainError(f"quadrature exponent alpha must be finite, got {self.alpha}")
            nodes = np.asarray(self.nodes, dtype=float)
            weights = np.asarray(self.weights, dtype=float)
            object.__setattr__(self, "nodes", nodes)
            object.__setattr__(self, "weights", weights)
            if nodes.ndim != 1 or nodes.size == 0 or nodes.shape != weights.shape:
                raise DomainError("nodes and weights must be matching 1-d arrays")
            if not np.all(weights >= 0):
                raise DomainError("quadrature weights must be nonnegative")
            if not np.all(nodes >= 1.0):
                raise DomainError("quadrature nodes must be >= 1")
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


def _assemble_subset(space: DiscreteMeasureSpace, delta: float):
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
    atoms, achieved = _assemble_subset(space, delta)
    direct = bgl_norm(indicator(space, atoms), psi, grid).value
    formula = fundamental_function(psi, achieved, grid)
    rel = abs(direct - formula) / max(abs(formula), 1e-300)
    return IndicatorCheck(delta_requested=delta, delta_achieved=achieved,
                          norm_direct=direct, norm_formula=formula,
                          rel_diff=rel, passed=rel <= 1e-9)
