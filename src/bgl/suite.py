"""The acceptance matrix: every top-level verification, each in one place.

Each criterion is a pure function of an explicit seed and its parameters,
producing one record with pass/fail and the evidence needed to reproduce a
violation in isolation (seed, case index, parameters).  The defaults are the
suite's parameters; the CLI verbs run fixed subsets of `CRITERIA` and
scenario configs only override parameters.  `run_criteria` strings them
into a deterministic report: same seed, byte-identical structured output.
"""

from __future__ import annotations

import inspect
import itertools
import math

import numpy as np

# chained_product_bound is not called here, but perfbench's suite harness
# looks up every name in its SUITE_CASE_CALLS on this module
from .chaining import (
    chained_product_bound,
    chained_product_bounds,
    generalized_pisier_bound,
    pisier_bound,
    series_S_beta,
)
from .entropy import (SemiMetric, check_theta, covering_number, covering_profile,
                      entropy_dimension, family_semimetric)
from .errors import DomainError
from .fixtures import (
    circle_lattice_metric,
    disjoint_indicator_family,
    make_rng,
    random_nonneg_family,
    random_plane_metric,
    random_trig_coeffs,
    torus_lattice_metric,
)
from .fourier import check_grid_size, maximal_ratio_check, square_wave_sample, trig_poly_sample
from .martingale import (
    EXHAUSTIVE_HORIZON_LIMIT,
    build_walk_ensemble,
    check_doob_p,
    doob_check,
    martingale_block_check,
    norming_identity,
    norming_log,
    norming_log_loglog,
    summability_check,
)
from .measure import DiscreteMeasureSpace, SimpleFunction
from .norms import fatou_check, indicator_norm_check, natural_psi
from .psi import PGrid, PsiFunction, constant, doob_factor, power
from .report import Record, Report

__all__ = ["run_suite", "run_criteria", "CRITERIA", "VERBS", "NATURAL"]

# Stands for the natural generating function of each checked family; psi
# parameters of the chain criteria accept it in place of a PsiFunction.
NATURAL = "natural"

_FIXED_LO = 1.1  # lower end of the p-grids of the criteria without grid_lo


def _grid(p_max: float, n: int = 64, lo: float = 1.05) -> PGrid:
    return PGrid.log_spaced(lo, p_max, n, p_max_cap=p_max)


def _families(rng, count: int, members: tuple, atoms: int, family):
    """(index, family) pairs: ``family`` alone when given, else ``count``
    seeded random nonnegative families of rng.integers(*members) members."""
    if family is not None:
        yield 0, family
        return
    for i in range(count):
        yield i, random_nonneg_family(rng, int(rng.integers(*members)), atoms)


def _resolve(psi, fam, grid):
    return natural_psi(fam, grid) if psi is NATURAL else psi


class _Margins:
    """Relative domination margins (bound - exact) / exact of one criterion,
    with the first case whose margin falls below -tol."""

    def __init__(self, tol: float):
        self.tol = tol
        self.worst = math.inf
        self.violations = 0
        self.checked = 0
        self.first = None

    def add(self, bound: float, exact: float, **case):
        margin = (bound - exact) / max(exact, 1e-300)
        self.worst = min(self.worst, margin)
        if margin < -self.tol:
            self.violations += 1
            if self.first is None:
                self.first = case
        self.checked += 1

    @property
    def passed(self) -> bool:
        """No violation, and at least one case checked: an empty run proves nothing."""
        return self.checked > 0 and self.violations == 0

    def fields(self, seed: int, **extra) -> dict:
        fields = dict(seed=seed, checked=self.checked, violations=self.violations,
                      worst_rel_margin=self.worst, **extra)
        if self.checked == 0:
            fields["reason"] = "no case was checked"
        if self.first is not None:
            fields.update(self.first)
        return fields


# --- 1. finite maximal inequality: domination and sharpness -----------------


def criterion_pisier(seed: int, *, count: int = 200, members: tuple = (2, 33),
                     atoms: int = 48, family=None, tol: float = 1e-10) -> Record:
    rng = make_rng(seed)
    ps = [1.5, 2.0, 4.0, 8.0]
    margins = _Margins(tol)
    for idx, fam in _families(rng, count, members, atoms, family):
        for p in ps:
            r = pisier_bound(fam, p)
            margins.add(r.bound, r.exact, family_index=idx, p=p)
    eq = max(abs(r.bound / r.exact - 1.0)
             for r in (pisier_bound(disjoint_indicator_family(m), p)
                       for m in [4, 16, 32] for p in ps))
    ok = margins.passed and eq <= 1e-10
    return Record(_RECORDS["pisier"], ok, fields=margins.fields(seed, equality_gap=eq))


# --- 2. product-space version with the fundamental function -----------------


def criterion_generalized_pisier(seed: int, p_max: float = 200.0, *, count: int = 200,
                                 members: tuple = (2, 33), atoms: int = 48, family=None,
                                 pairs=((constant(), constant()), (power(1.0), doob_factor()),
                                        (NATURAL, power(1.0))),
                                 grid_lo: float = 1.05, grid_n: int = 64,
                                 tol: float = 1e-8) -> Record:
    """``pairs`` of (psi, nu) default to (1, 1), (p, p/(p-1)) and (natural, p)."""
    rng = make_rng(seed)
    grid = _grid(p_max, grid_n, grid_lo)
    margins = _Margins(tol)
    for idx, fam in _families(rng, count, members, atoms, family):
        for psi, nu in pairs:
            psi, nu = _resolve(psi, fam, grid), _resolve(nu, fam, grid)
            r = generalized_pisier_bound(fam, psi, nu, grid)
            margins.add(r.bound, r.exact, family_index=idx, psi=psi.label, nu=nu.label)
    return Record(_RECORDS["generalized_pisier"], margins.passed, fields=margins.fields(seed))


# --- 3. chaining bound in the grand Lebesgue scale --------------------------


def criterion_chained_bound(seed: int, p_max: float = 200.0, *, count: int = 50,
                            members: tuple = (4, 17), atoms: int = 32, family=None,
                            psi=NATURAL, nus=(constant(), power(1.0)),
                            thetas=(0.3, 0.5, 0.7), k_max: int = 32,
                            grid_lo: float = 1.05, grid_n: int = 64,
                            tol: float = 1e-8) -> Record:
    """``nus`` default to (1, p)."""
    rng = make_rng(seed)
    grid = _grid(p_max, grid_n, grid_lo)
    margins = _Margins(tol)
    for idx, fam in _families(rng, count, members, atoms, family):
        psi0 = _resolve(psi, fam, grid)
        metric = family_semimetric(fam, psi=psi0, grid=grid)
        for nu in nus:
            nu = _resolve(nu, fam, grid)
            reports = chained_product_bounds(fam, psi0, nu, grid, thetas, k_max=k_max,
                                             metric=metric)
            for theta, rep in zip(thetas, reports):
                margins.add(rep.bound_value, rep.exact_sup_norm,
                            family_index=idx, theta=theta, nu=nu.label)
    return Record(_RECORDS["chained_bound"], margins.passed, fields=margins.fields(seed))


# --- 4. fundamental function against a measure-space indicator --------------


def criterion_indicator(seed: int, p_max: float = 200.0, *, space_atoms: int = 256,
                        atom_mass: float = 1.0 / 16.0,
                        psis=(constant(), power(0.5), power(2.0), doob_factor()),
                        deltas=(0.25, 0.5, 1.0, 2.0, 4.0), grid_lo: float = 1.05,
                        grid_n: int = 64) -> Record:
    """On ``space_atoms`` atoms of mass ``atom_mass``; ``psis`` default to 1,
    p^0.5, p^2 and p/(p-1); dyadic masses are exact."""
    space = DiscreteMeasureSpace(np.full(space_atoms, atom_mass))
    grid = _grid(p_max, grid_n, grid_lo)
    worst = 0.0
    ok = True
    for delta in deltas:
        for psi in psis:
            rep = indicator_norm_check(space, delta, psi, grid)
            worst = max(worst, rep.rel_diff)
            ok = ok and rep.passed
    return Record(_RECORDS["indicator"], ok,
                  fields=dict(pairs=len(deltas) * len(psis), worst_rel_diff=worst))


# --- 5. monotone norm convergence --------------------------------------------


def criterion_fatou(seed: int, p_max: float = 200.0) -> Record:
    n = 1000
    space = DiscreteMeasureSpace(np.full(n, 1.0 / n))
    full = SimpleFunction(space, 2.0 ** -(np.arange(n) / 40.0))
    chain = []
    for k in range(50, n + 1, 50):
        v = np.zeros(n)
        v[:k] = full.values[:k]
        chain.append(SimpleFunction(space, v))
    rep = fatou_check(chain, full, doob_factor(), _grid(p_max, lo=_FIXED_LO))
    ok = rep.monotone and 0.0 <= rep.terminal_gap < 1e-6
    return Record(_RECORDS["fatou"], ok,
                  fields=dict(chain_length=len(chain), terminal_gap=rep.terminal_gap,
                              monotone=rep.monotone))


# --- 6. covering numbers against exhaustive enumeration ---------------------


def _brute_force_cover(metric: SemiMetric, eps: float) -> int:
    m = metric.size
    within = metric.d <= eps
    masks = []
    for j in range(m):
        mask = 0
        for i in np.flatnonzero(within[:, j]):
            mask |= 1 << int(i)
        masks.append(mask)
    full = (1 << m) - 1
    for k in range(1, m + 1):
        for centers in itertools.combinations(range(m), k):
            acc = 0
            for c in centers:
                acc |= masks[c]
            if acc == full:
                return k
    return m


def criterion_covering_oracle(seed: int) -> Record:
    rng = make_rng(seed)
    mismatches = 0
    for i in range(200):
        m = int(rng.integers(3, 13))
        metric = random_plane_metric(rng, m)
        eps = float(rng.uniform(0.05, 1.1)) * max(metric.diameter, 0.05)
        if covering_number(metric, eps) != _brute_force_cover(metric, eps):
            mismatches += 1
    return Record(_RECORDS["covering_oracle"], mismatches == 0,
                  fields=dict(seed=seed, metrics=200, mismatches=mismatches))


# --- 7. entropy dimension of fine grids --------------------------------------


def criterion_dimension(seed: int) -> Record:
    # periodic lattices: the wraparound metric removes the boundary bias of
    # the centered-ball estimator, and dyadic alignment keeps the mid-range
    # covering numbers on the exact 2^k / 4^k ladder
    prof1 = covering_profile(circle_lattice_metric(8), 0.5, 12)
    kappa1 = entropy_dimension(prof1, fit_range=(2, 6))
    prof2 = covering_profile(torus_lattice_metric(6), 0.5, 8)
    kappa2 = entropy_dimension(prof2, fit_range=(2, 4))
    ok = abs(kappa1 - 1.0) <= 0.2 and abs(kappa2 - 2.0) <= 0.2
    return Record(_RECORDS["dimension"], ok,
                  fields=dict(kappa_line=kappa1, kappa_square=kappa2))


# --- 8. the elementary series bounds -----------------------------------------


def criterion_series(seed: int) -> Record:
    qs = [0.5, 0.7, 0.9, 0.99]
    closed_ok = True
    worst_closed = 0.0
    for q in qs:
        e0 = abs(series_S_beta(q, 0.0).s_value - q / (1.0 - q)) / (q / (1.0 - q))
        e1 = abs(series_S_beta(q, 1.0).s_value - q / (1.0 - q) ** 2) / (q / (1.0 - q) ** 2)
        worst_closed = max(worst_closed, e0, e1)
        closed_ok = closed_ok and e0 <= 1e-12 and e1 <= 1e-12
    # fitted constants must sit within a factor 2 of the q -> 1 limits
    stable_ok = True
    details = []
    for beta in [-2.0, -1.0, -0.5, 0.5, 2.0]:
        ratios = [series_S_beta(q, beta).constant_used for q in qs]
        if beta > -1.0:
            limit = math.gamma(beta + 1.0)
        elif beta == -1.0:
            limit = 1.0
        else:
            limit = math.pi ** 2 / 6  # zeta(2), the only beta < -1 here
        fitted = max(ratios)
        stable = limit / 2.0 <= fitted <= limit * (1.0 + 1e-9)
        stable_ok = stable_ok and stable
        details.append(fitted / limit)
    return Record(_RECORDS["series"], closed_ok and stable_ok,
                  fields=dict(worst_closed_form_error=worst_closed,
                              fitted_over_limit=details))


# --- 9. the Doob maximal inequality, exactly ---------------------------------


def criterion_doob(seed: int, *, horizons=(10, 14), ps=(1.25, 2.0, 4.0)) -> Record:
    worst_slack = math.inf
    ok = True
    checked = 0
    for horizon in horizons:
        ens = build_walk_ensemble(horizon)
        for p in ps:
            for n in range(1, horizon + 1):
                rep = doob_check(ens, p, n)
                ok = ok and rep.passed
                worst_slack = min(worst_slack, rep.cap - rep.ratio)
                checked += 1
    return Record(_RECORDS["doob"], ok, fields=dict(checked=checked, worst_slack=worst_slack))


# --- 10. the dyadic-block proof chain ----------------------------------------


def criterion_block_chain(seed: int, p_max: float = 200.0, *, horizon: int = 14,
                          tol: float = 1e-9) -> Record:
    grid = _grid(min(50.0, p_max), 48, _FIXED_LO)
    ens = build_walk_ensemble(horizon)
    ok = True
    ratios = []
    for v in [norming_identity(), norming_log_loglog(1.0)]:
        rep = martingale_block_check(ens, constant(), v, grid)
        ok = ok and rep.all_blocks_pass and rep.ratio <= 1.0 + tol
        ok = ok and rep.condition.summable
        ratios.append(rep.ratio)
    log_flagged = not summability_check(norming_log()).summable
    ok = ok and log_flagged
    return Record(_RECORDS["block_chain"], ok,
                  fields=dict(ratios=ratios, log_flagged_nonsummable=log_flagged))


# --- 11. the Fourier maximal operator saturates ------------------------------


def criterion_fourier(seed: int, p_max: float = 200.0, *, m_list=(16, 32, 64, 128),
                      samples: int = 5, degree_max: int = 12,
                      grid_points: int = 1024) -> Record:
    rng = make_rng(seed)
    grid = _grid(min(32.0, p_max), 24, _FIXED_LO)
    cases = [square_wave_sample(grid_points)]
    for _ in range(samples):
        a, b = random_trig_coeffs(rng, int(rng.integers(3, degree_max + 1)))
        cases.append(trig_poly_sample(a, b, grid_points))
    ok = True
    worst_ratio = 0.0
    for s in cases:
        rep = maximal_ratio_check(s, constant(), grid, list(m_list))
        ok = ok and rep.passed
        worst_ratio = max(worst_ratio, rep.norm_ratio)
    return Record(_RECORDS["fourier"], ok,
                  fields=dict(seed=seed, samples=len(cases),
                              worst_norm_ratio=worst_ratio))


# The suite's criteria in order, each by its short name and the name of its
# record: the criterion writes it, and so does run_criteria when an error
# ends the criterion
_RECORDS = {
    "pisier": "pisier_domination_and_sharpness",
    "generalized_pisier": "generalized_pisier_domination",
    "chained_bound": "chained_product_bound_domination",
    "indicator": "fundamental_function_consistency",
    "fatou": "fatou_monotone_convergence",
    "covering_oracle": "covering_exact_equals_bruteforce",
    "dimension": "entropy_dimension_of_grids",
    "series": "series_bounds",
    "doob": "doob_ratio_under_cap",
    "block_chain": "martingale_block_chain",
    "fourier": "fourier_maximal_saturation",
}
CRITERIA = [globals()[f"criterion_{name}"] for name in _RECORDS]
NAMES = tuple(_RECORDS)

# CLI verb -> the criteria it runs; the series bounds run only in the suite
VERBS = {
    "norm": ("indicator", "fatou"),
    "entropy": ("covering_oracle", "dimension"),
    "chain": ("pisier", "generalized_pisier", "chained_bound"),
    "martingale": ("doob", "block_chain"),
    "fourier": ("fourier",),
    "suite": NAMES,
}


def _range(least, most=math.inf, *, above=False):
    """Rule: finite, at least ``least`` (above it if ``above``), at most ``most``."""
    def rule(value):
        if not math.isfinite(value):
            raise DomainError("must be finite")
        if value < least or (above and value == least):
            raise DomainError(f"must be {'above' if above else 'at least'} {least}")
        if value > most:
            raise DomainError(f"must be at most {most}")
    return rule


# The rule of each parameter a config key or flag sets, applied to each item
# of a tuple value.  count has none, so count = 0 checks nothing and fails;
# the object-valued family, pairs, psi, psis and nus are checked when built.
_RULES = {
    "members": _range(1),
    "atoms": _range(1),
    "space_atoms": _range(1),
    "atom_mass": _range(0, above=True),
    "deltas": _range(0, above=True),
    "grid_lo": _range(1, above=True),  # and inside each psi's support, in _check_supports
    "grid_n": _range(2),
    "p_max": _range(-math.inf),  # and above each grid's lower end, in _check_spans
    "tol": _range(0),
    "thetas": check_theta,
    "k_max": _range(1),
    "horizons": _range(1, EXHAUSTIVE_HORIZON_LIMIT),  # config walks take the +-1 law
    "horizon": _range(1, EXHAUSTIVE_HORIZON_LIMIT),
    "ps": check_doob_p,
    "m_list": _range(1),
    "samples": _range(0),
    "degree_max": _range(3),  # the random polynomials draw their degree from 3..degree_max
    "grid_points": check_grid_size,
}


def check_value(source: str, param: str, value) -> None:
    """Apply the rule of ``param`` to ``value``, item by item for a tuple;
    DomainError reads ``<source> = <item>: <reason>``."""
    rule = _RULES.get(param)
    if rule is None:
        return
    for item in value if isinstance(value, (tuple, list)) else (value,):
        try:
            rule(item)
        except DomainError as exc:
            raise DomainError(f"{source} = {item}: {exc}") from None


def _check_spans(args: dict, origin: dict) -> None:
    """The rules spanning two parameters, on one criterion's arguments with its
    defaults filled in; the error names the source of p_max or m_list if one
    set it, else the source of grid_lo or grid_points."""
    p_max, lo = args.get("p_max", math.inf), args.get("grid_lo", _FIXED_LO)
    if not p_max > lo:
        if "p_max" in origin:
            raise DomainError(f"{origin['p_max']} = {p_max}: must exceed the grid's lower end {lo}")
        raise DomainError(f"{origin['grid_lo']} = {lo}: must lie below p_max = {p_max}")
    m, k = max(args.get("m_list", ()), default=0), args.get("grid_points", 0)
    if m > k // 4:
        if "m_list" in origin:
            raise DomainError(f"{origin['m_list']} = {m}: must be at most grid_points/4 = {k // 4}")
        raise DomainError(f"{origin['grid_points']} = {k}: "
                          f"must be at least 4 * max(m_list) = {4 * m}")


def _psis(value) -> list:
    """The PsiFunctions in a psi, psis, nus or pairs value; natural has none."""
    if isinstance(value, (tuple, list)):
        return [psi for item in value for psi in _psis(item)]
    return [value] if isinstance(value, PsiFunction) else []


def _check_supports(bound: list, origin: dict) -> None:
    """Each psi at the ends grid_lo and p_max of its criterion's grid,
    parameter by parameter, so a psi or nu fails under its own source before
    under the source of a pair it also sits in.  psi(p) checks each end; a
    default psi that fails does so under the source of the end."""
    for param in ("psi", "psis", "nus", "pairs"):
        for args in bound:
            for psi in _psis(args.get(param)):
                for end in ("grid_lo", "p_max"):
                    p = args[end]
                    try:
                        psi(p)
                    except DomainError as exc:
                        source = origin.get(param) or f"{origin[end]} = {p:g}"
                        raise DomainError(f"{source}: {exc}") from None


def run_criteria(kind: str, seed: int, overrides=()) -> Report:
    """Run the criteria of one verb at the suite's sub-seeds seed*1000 + index.

    ``overrides`` is a sequence of ``(source, {parameter: value})`` applied in
    order, so a later source wins.  Each parameter goes to every criterion of
    the verb that declares it.  Before any criterion runs, DomainError names
    a source that reaches none, a value its parameter's rule in ``_RULES``
    rejects, a value that fails a rule spanning parameters, and a psi that
    ``psi(p)`` rejects at an end of its grid.
    A ValueError (the base of bgl's domain errors) or MemoryError raised
    inside a check becomes a failed record carrying its sub-seed, so the
    rest of the run still reports.
    """
    names = VERBS[kind]
    signatures = {name: inspect.signature(CRITERIA[NAMES.index(name)]) for name in names}
    params = {name: {} for name in names}
    origin = {}  # parameter -> the source that set it last
    # every criterion that takes p_max defaults it to 200
    p_max = 200.0
    for source, values in overrides:
        reached = False
        for param, value in values.items():
            check_value(source, param, value)
            origin[param] = source
            for name in names:
                if param in signatures[name].parameters:
                    params[name][param] = value
                    reached = True
        if not reached:
            raise DomainError(f"{source} reaches no {kind} criterion")
        p_max = values.get("p_max", p_max)
    bound = []
    for name in names:
        args = signatures[name].bind(seed, **params[name])
        args.apply_defaults()
        _check_spans(args.arguments, origin)
        bound.append(args.arguments)
    _check_supports(bound, origin)
    report = Report(meta={"kind": kind, "seed": seed, "p_max": p_max})
    for name in names:
        i = NAMES.index(name)
        sub_seed = seed * 1000 + i
        try:
            rec = CRITERIA[i](sub_seed, **params[name])
        except (ValueError, MemoryError) as exc:
            rec = Record(_RECORDS[name], False, fields=dict(seed=sub_seed, error=str(exc)))
        report.records.append(rec)
    return report


def run_suite(seed: int = 1) -> Report:
    """Run every acceptance criterion with its default parameters."""
    return run_criteria("suite", seed)
