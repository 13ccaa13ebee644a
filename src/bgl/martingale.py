"""Martingale ensembles and the dyadic-block maximal bound.

A martingale with independent mean-zero increments is realized exhaustively:
atoms of the path space are full increment sequences with product weights,
so every expectation below is an exact finite sum.  The martingale property
is verified at construction by conditioning on each prefix.

An F_n-measurable quantity (S_1..S_n, their running max) is constant on
each of the base^n prefix blocks of the path space, so its norms are
taken on those blocks as atoms, each weighing the total of its paths
(`MartingaleEnsemble.level`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, PreconditionError, SizeError
from .measure import DiscreteMeasureSpace, SimpleFunction
from .norms import bgl_norm, lp_norm_matrix
from .psi import PGrid, PsiFunction, psi_doob

__all__ = [
    "MartingaleEnsemble",
    "build_walk_ensemble",
    "NormingFunction",
    "norming_identity",
    "norming_log",
    "norming_log_loglog",
    "summability_check",
    "DoobReport",
    "doob_check",
    "BlockRecord",
    "BlockChainReport",
    "martingale_block_check",
]

EXHAUSTIVE_HORIZON_LIMIT = 20


@dataclass(frozen=True)
class MartingaleEnsemble:
    """Path-space realization of (S_n, F_n), n = 1..horizon, with S_0 = 0."""

    space: DiscreteMeasureSpace
    s_values: np.ndarray          # (n_paths, horizon)
    sigma: np.ndarray             # sigma(n) = Var(S_n)^{1/2}, n = 1..horizon
    base: int                     # number of increment values

    # always enumerated; read by perfbench's walk16 judge
    exhaustive = True

    @property
    def horizon(self) -> int:
        return int(self.s_values.shape[1])

    def _check_n(self, n: int) -> None:
        if not (1 <= n <= self.horizon):
            raise DomainError(f"n={n} outside 1..{self.horizon}")

    def s_at(self, n: int) -> SimpleFunction:
        self._check_n(n)
        return SimpleFunction(self.space, self.s_values[:, n - 1])

    def running_abs_max(self, n: int) -> SimpleFunction:
        self._check_n(n)
        return SimpleFunction(self.space, np.max(np.abs(self.s_values[:, :n]), axis=1))

    def level(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(weights, S_1..S_n per atom) on the atoms of F_n.

        These are the base^n prefix blocks (paths are ordered
        most-significant step first, so each block is contiguous); n =
        horizon returns the path space itself.
        """
        self._check_n(n)
        if n == self.horizon:
            return self.space.weights, self.s_values[:, :n]
        return (self.space.weights.reshape(self.base ** n, -1).sum(axis=1),
                self.s_values[::self.base ** (self.horizon - n), :n])


def _verify_martingale(s: np.ndarray, probs: np.ndarray, n_values: int, tol: float = 1e-12):
    """E[S_{n+1} | first n increments] == S_n, exactly on the product space.

    S_n depends only on the first n digits, so a block representative per
    prefix suffices; conditioning reduces to one weighted mean per digit.
    """
    n_paths, horizon = s.shape
    base = n_values
    scale = max(1.0, float(np.max(np.abs(s))))
    for n in range(horizon - 1):
        nxt = s[:, n + 1].reshape(base ** (n + 2), -1)[:, 0]
        cond = (probs[None, :] * nxt.reshape(base ** (n + 1), base)).sum(axis=1)
        cur = s[:, n].reshape(base ** (n + 1), -1)[:, 0]
        if np.max(np.abs(cond - cur)) > tol * scale:
            raise PreconditionError("martingale property fails on the enumerated space")


def build_walk_ensemble(horizon: int, increments=None, probs=None) -> MartingaleEnsemble:
    """Random walk S_n = sum of i.i.d. mean-zero increments, n = 1..horizon.

    Default law is the symmetric +-1 step.  Enumeration needs horizon <= 20.
    """
    if horizon < 1:
        raise DomainError(f"horizon = {horizon} must be at least 1")
    if horizon > EXHAUSTIVE_HORIZON_LIMIT:
        raise SizeError(f"horizon {horizon} > {EXHAUSTIVE_HORIZON_LIMIT}: enumeration too large")
    if increments is None:
        increments = np.array([-1.0, 1.0])
        probs = np.array([0.5, 0.5])
    else:
        increments = np.asarray(increments, dtype=float)
        probs = (np.full(increments.size, 1.0 / increments.size)
                 if probs is None else np.asarray(probs, dtype=float))
    if abs(float(np.dot(probs, increments))) > 1e-12:
        raise PreconditionError("increment law must have mean zero")
    if abs(float(probs.sum()) - 1.0) > 1e-12:
        raise PreconditionError("increment probabilities must sum to one")
    if float(np.dot(probs, increments ** 2)) <= 0.0:
        raise PreconditionError("increment law must have positive variance")

    base = increments.size
    idx = np.arange(base ** horizon)
    digits = np.empty((idx.size, horizon), dtype=np.int64)
    for col in range(horizon):
        # most-significant digit first keeps prefix blocks contiguous
        digits[:, col] = (idx // base ** (horizon - 1 - col)) % base
    weights = np.prod(probs[digits], axis=1)
    steps = increments[digits]
    s = np.cumsum(steps, axis=1)
    _verify_martingale(s, probs, base)
    sigma = np.sqrt(weights @ (s ** 2) - (weights @ s) ** 2)
    return MartingaleEnsemble(space=DiscreteMeasureSpace(weights), s_values=s,
                              sigma=sigma, base=base)


# ---------------------------------------------------------------------------
# norming functions


@dataclass(frozen=True)
class NormingFunction:
    """Nondecreasing positive deterministic v(n) -> inf."""

    label: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, n):
        arr = np.asarray(n, dtype=float)
        out = np.asarray(self.fn(arr), dtype=float)
        return float(out) if arr.ndim == 0 else out


def norming_identity() -> NormingFunction:
    return NormingFunction("n", lambda n: n)


def norming_log() -> NormingFunction:
    """v(n) = log n; fails the dyadic summability condition."""
    return NormingFunction("log(n)", lambda n: np.log(n))


def norming_log_loglog(delta: float) -> NormingFunction:
    """v(n) = (log n)(log log n)^{1+delta} for n >= 16, held constant below.

    The clamp keeps v positive and nondecreasing on small n where the double
    logarithm would misbehave.
    """
    if delta <= 0:
        raise DomainError("delta must be positive")

    def fn(n):
        n = np.maximum(np.asarray(n, dtype=float), 16.0)
        return np.log(n) * np.log(np.log(n)) ** (1.0 + delta)

    return NormingFunction(f"log*loglog^{1 + delta:g}", fn)


@dataclass(frozen=True)
class SummabilityReport:
    partial_sum: float
    tail_fraction: float
    summable: bool
    n_terms: int


def summability_check(v: NormingFunction) -> SummabilityReport:
    """Numerical test of sum_n 1/v(2^n) < inf over n = 1..48.

    Heuristic: the second half of the partial sum must contribute less than
    0.08 of the total.  This cleanly separates v(n) = n (geometric terms)
    from v(n) = log n (harmonic terms) on 48 terms.
    """
    n_terms = 48
    ns = np.arange(1, n_terms + 1, dtype=float)
    terms = 1.0 / v(2.0 ** ns)
    if np.any(terms <= 0) or not np.all(np.isfinite(terms)):
        raise DomainError("1/v(2^n) must be finite and positive on the tested range")
    total = float(terms.sum())
    half = float(terms[n_terms // 2:].sum())
    frac = half / total
    return SummabilityReport(partial_sum=total, tail_fraction=frac,
                             summable=frac < 0.08, n_terms=n_terms)


# ---------------------------------------------------------------------------
# Doob inequality


@dataclass(frozen=True)
class DoobReport:
    p: float
    n: int
    max_norm: float
    member_norm_max: float
    ratio: float
    cap: float

    @property
    def passed(self) -> bool:
        return self.ratio <= self.cap


def doob_check(ens: MartingaleEnsemble, p: float, n: int) -> DoobReport:
    """|max_{k<=n} |S_k||_p <= (p/(p-1)) max_{k<=n} |S_k|_p, exactly.

    Both sides are F_n-measurable and are evaluated on F_n's atoms, in one
    kernel call over the running max and the members S_1..S_n.
    """
    if p <= 1:
        raise DomainError("Doob inequality needs p > 1")
    weights, s = ens.level(n)
    rows = np.vstack([np.abs(s).max(axis=1), s.T])
    norms = lp_norm_matrix(rows, weights, np.array([p], dtype=float))[:, 0]
    lhs, member = float(norms[0]), float(norms[1:].max())
    return DoobReport(p=p, n=n, max_norm=lhs, member_norm_max=member,
                      ratio=lhs / member, cap=p / (p - 1.0))


# ---------------------------------------------------------------------------
# dyadic-block bound for sup_n S_n / (v(n) sigma(n))


@dataclass(frozen=True)
class BlockRecord:
    k: int
    a: int
    b: int
    doob_margin: float      # min over p of rhs - lhs for the block Doob step
    moment_margin: float    # min over p of kappa*psi(p)*sigma(b) - |S_b|_p
    factor: float           # sigma(b) / (v(a) sigma(a))


@dataclass(frozen=True)
class BlockChainReport:
    kappa_psi: float
    tau_norm: float
    rhs: float
    ratio: float
    blocks: tuple
    condition: SummabilityReport
    all_blocks_pass: bool

    @property
    def passed(self) -> bool:
        return self.all_blocks_pass and self.ratio <= 1.0 + 1e-9


def martingale_block_check(ens: MartingaleEnsemble, psi: PsiFunction,
                           v: NormingFunction, grid: PGrid) -> BlockChainReport:
    """Verify the dyadic-block proof chain for tau = sup_n S_n/(v(n) sigma(n)).

    Blocks are Q(k) = [2^{k-1}, 2^k - 1] clipped to the horizon.  Per block
    and per grid p the two links are checked exactly:

      |max_{m in Q(k)} |S_m|/(sigma(m) v(m))|_p
          <= (p/(p-1)) |S_{B(k)}|_p / (v(A(k)) sigma(A(k)))
      |S_{B(k)}|_p <= kappa * psi(p) * sigma(B(k))

    with kappa = sup_n ||S_n / sigma(n)||_{G(psi)} on the same grid.  Summing
    gives ||tau||_{G(psi_1)} <= kappa * sum_k sigma(B)/(v(A) sigma(A)) with
    psi_1(p) = p psi(p)/(p-1); the report's ratio is lhs/rhs for that final
    inequality, evaluated grid-consistently so it cannot exceed 1.  A block
    passes when both margins stay above -1e-12 times the scale of their
    right-hand side.
    """
    pts = psi.check_support(grid.points)  # p > a >= 1: p/(p-1) is finite
    horizon = ens.horizon
    psi_vals = psi.eval(pts)

    # kappa = sup_n ||S_n / sigma(n)||_{G(psi)}: one ratio matrix, reused
    # below; row n is taken on the atoms of F_n
    levels = [ens.level(n) for n in range(1, horizon + 1)]
    norm_matrix = np.concatenate([lp_norm_matrix(s[:, -1][None, :], w, pts)
                                  for w, s in levels])
    kappa = float(np.max(norm_matrix / ens.sigma[:, None] / psi_vals[None, :]))

    sig = ens.sigma
    vv = v(np.arange(1, horizon + 1, dtype=float))

    blocks = []
    all_pass = True
    factor_sum = 0.0
    k = 1
    while 2 ** (k - 1) <= horizon:
        a = 2 ** (k - 1)
        b = min(2 ** k - 1, horizon)
        # tau_k is F_b-measurable
        w_b, s_b = levels[b - 1]
        tau_k = np.max(np.abs(s_b[:, a - 1:]) / (sig * vv)[None, a - 1:b], axis=1)
        lhs = lp_norm_matrix(tau_k[None, :], w_b, pts)[0]
        doob_rhs = (pts / (pts - 1.0)) * norm_matrix[b - 1] / (vv[a - 1] * sig[a - 1])
        doob_margin = float(np.min(doob_rhs - lhs))
        moment_margin = float(np.min(kappa * psi_vals * sig[b - 1] - norm_matrix[b - 1]))
        factor = sig[b - 1] / (vv[a - 1] * sig[a - 1])
        factor_sum += factor
        ok = (doob_margin >= -1e-12 * max(1.0, float(np.max(doob_rhs)))
              and moment_margin >= -1e-12 * max(1.0, kappa * float(np.max(psi_vals)) * sig[b - 1]))
        all_pass = all_pass and ok
        blocks.append(BlockRecord(k=k, a=a, b=b, doob_margin=doob_margin,
                                  moment_margin=moment_margin, factor=factor))
        k += 1

    tau = SimpleFunction(ens.space, np.max(ens.s_values / (sig * vv)[None, :], axis=1))
    psi1 = psi_doob(psi)
    tau_norm = bgl_norm(tau, psi1, grid, refine=False).value
    rhs = kappa * factor_sum
    condition = summability_check(v)
    return BlockChainReport(
        kappa_psi=kappa, tau_norm=tau_norm, rhs=rhs, ratio=tau_norm / rhs,
        blocks=tuple(blocks), condition=condition, all_blocks_pass=all_pass,
    )
