"""The four benchmark workloads.

Each workload has two halves.  ``make_inputs(input_seed)`` is set-up: it
generates the seeded inputs with bgl's own fixtures.  ``run_pass(inputs)``
is one timed pass over them and returns one ``Case`` per unit of work (a
family, a metric, a (p, n) check or a sample) with the program's outputs
for that case.  ``check_pass`` judges each case's verdict
and compares its outputs with the references captured by ``capture.py``.

Why these four:

* ``suite`` is the full acceptance matrix, the end-to-end number users wait
  for; about 60k tiny kernel calls from the golden-section refinement
  dominate it, so per-call overhead and the refinement layer show here.
* ``chain_wide`` makes a few huge batched kernel calls (pairs x 64 p x 256
  atoms), so it bounds kernel throughput and memory, not per-call overhead.
* ``entropy_cover`` never calls the L_p kernel: exact branch-and-bound and
  greedy covers only, so a kernel or refinement change should leave it alone.
* ``martingale_fourier`` uses the kernel at the opposite shape (few
  functions x few p x 65k atoms) and covers the martingale and Fourier layers.
"""

from __future__ import annotations

import json
import math
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import bgl

# The --seed argument selects one of POOL_SIZE input seeds, so that every pass
# can be compared with outputs captured at a known-good commit.  The suite
# always runs ROADMAP's seed: the criteria draw their family sizes from the
# seed, and that moved the suite's median case time by about 23% (quartile
# spread over five seeds), more than its bound allows.
POOL_SIZE = 16
SEED_BASE = 20240801

# Outputs may move by last-ulp float changes (ROADMAP allows them); a float
# matches its reference when |out - ref| <= ATOL + RTOL * |ref|.  Integers,
# booleans and strings must match exactly.
RTOL = 1e-9
ATOL = 1e-12

CHAIN_SIZES = (32, 34, 36, 38, 40)
CHAIN_ATOMS = 256
CHAIN_THETAS = (0.3, 0.5, 0.7)
COVER_METRICS = 1200
COVER_SIZES = (20, 21, 22, 23, 24)
COVER_FRACTIONS = (0.15, 0.25, 0.35)
WALK_HORIZON = 16
DOOB_PS = (1.25, 2.0, 4.0)
FOURIER_K = 4096
FOURIER_M = (32, 64, 128, 256)
FOURIER_TRIG_SAMPLES = 5


def input_seed(workload: str, seed: int) -> int:
    return SEED_BASE if workload == "suite" else SEED_BASE + int(seed) % POOL_SIZE


@dataclass
class Case:
    """One unit of a pass: timed (``seconds``), checked (``checked``), or both."""

    case_id: str
    seconds: float | None
    verdict: bool | None = None
    outputs: object = None
    error: str | None = None
    checked: bool = True


def _timed(cases: list, case_id: str, fn, judge):
    """Time ``fn()``; ``judge(result) -> (verdict, outputs)`` runs untimed."""
    t0 = perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a raising call is a failed check, not a crash
        cases.append(Case(case_id, perf_counter() - t0, error=repr(exc)))
        traceback.print_exc(file=sys.stderr)
        return None
    elapsed = perf_counter() - t0
    verdict, outputs = judge(result)
    cases.append(Case(case_id, elapsed, bool(verdict), outputs))
    return result


def _plain(value):
    """JSON-ready copy of a record field (numpy scalars and arrays included)."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    return str(value)


# ---------------------------------------------------------------------------
# suite: run_suite(seed) + to_text.  The eleven criteria are checked against
# the reference; the timed cases are the criteria's calls into the checking
# layers (one family's bound, one metric's cover, one (p, n) Doob check, one
# sample), so the pass has thousands of cases rather than eleven.

SUITE_CASE_CALLS = ("pisier_bound", "generalized_pisier_bound", "chained_product_bound",
                    "indicator_norm_check", "fatou_check", "covering_number",
                    "covering_profile", "series_S_beta", "doob_check",
                    "martingale_block_check", "summability_check", "maximal_ratio_check")


def suite_inputs(seed: int):
    return seed


def suite_pass(seed) -> list:
    suite = bgl.suite
    cases: list = []
    originals = {name: getattr(suite, name) for name in SUITE_CASE_CALLS}

    def timed(name, fn):
        def call(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            cases.append(Case(f"{len(cases)}:{name}", perf_counter() - t0, checked=False))
            return result
        return call

    for name, fn in originals.items():
        setattr(suite, name, timed(name, fn))
    try:
        report = suite.run_suite(seed)
    except Exception as exc:  # the criteria not yet run count as missing
        cases.append(Case("run_suite", None, error=repr(exc)))
        traceback.print_exc(file=sys.stderr)
        return cases
    finally:
        for name, fn in originals.items():
            setattr(suite, name, fn)
    for rec in report.records:
        fields = {k: _plain(v) for k, v in rec.fields.items()}
        cases.append(Case(rec.name, None, _plain(rec.passed),
                          {"pass": _plain(rec.passed), **fields}))
    _timed(cases, "to_text", lambda: bgl.report.to_text(report),
           lambda text: (text.endswith("summary.verdict = ok\n"),
                         {"lines": text.count("\n")}))
    return cases


# ---------------------------------------------------------------------------
# chain_wide: natural psi, G(psi) semi-metric, greedy profiles, chained bound


def chain_inputs(seed: int):
    rng = bgl.fixtures.make_rng(seed)
    sizes = rng.permutation(np.array(CHAIN_SIZES))
    return [bgl.fixtures.random_nonneg_family(rng, int(m), CHAIN_ATOMS) for m in sizes]


def _chain_family(family):
    grid = bgl.PGrid.log_spaced(1.05, 200.0, 64, p_max_cap=200.0)
    psi0 = bgl.natural_psi(family, grid)
    metric = bgl.family_semimetric(family, psi=psi0, grid=grid)
    profiles = [bgl.covering_profile(metric, theta, 32) for theta in CHAIN_THETAS]
    reports = {}
    for label, nu in (("constant", bgl.constant()), ("power1", bgl.power(1.0))):
        for theta in CHAIN_THETAS:
            reports[f"{label}/{theta}"] = bgl.chained_product_bound(
                family, psi0, nu, grid, theta, metric=metric)
    return metric, profiles, reports


def _judge_chain(result):
    metric, profiles, reports = result
    outputs = {
        "diameter": metric.diameter,
        "profiles": [[lv.n_balls for lv in prof.levels] for prof in profiles],
        "bounds": {key: {"bound": r.bound_value, "exact": r.exact_sup_norm,
                         "anchor": r.anchor, "truncation_k": r.truncation_k,
                         "saturated": bool(r.saturated)}
                   for key, r in reports.items()},
    }
    return all(r.dominates for r in reports.values()), outputs


def chain_pass(families) -> list:
    cases: list = []
    for i, fam in enumerate(families):
        _timed(cases, f"family{i}:m{fam.m}", lambda: _chain_family(fam), _judge_chain)
    return cases


# ---------------------------------------------------------------------------
# entropy_cover: exact covers of plane metrics, greedy lattice profiles


def cover_inputs(seed: int):
    rng = bgl.fixtures.make_rng(seed)
    metrics = [bgl.fixtures.random_plane_metric(rng, COVER_SIZES[i % len(COVER_SIZES)])
               for i in range(COVER_METRICS)]
    circle = bgl.fixtures.circle_lattice_metric(8)
    torus = bgl.fixtures.torus_lattice_metric(6)
    return metrics, circle, torus


def _judge_cover(metric, eps):
    def judge(result):
        n, centers = result
        covered = bool(np.all(metric.d[:, centers].min(axis=1) <= eps))
        return covered and n == len(centers), int(n)
    return judge


def _judge_lattice(kappa_target):
    def judge(result):
        profile, kappa = result
        counts = [lv.n_balls for lv in profile.levels]
        return abs(kappa - kappa_target) <= 0.2, {"levels": counts, "kappa": float(kappa)}
    return judge


def _lattice(metric, k_max, fit_range):
    profile = bgl.covering_profile(metric, 0.5, k_max, mode="greedy")
    return profile, bgl.entropy_dimension(profile, fit_range=fit_range)


def cover_pass(inputs) -> list:
    metrics, circle, torus = inputs
    cases: list = []
    for i, metric in enumerate(metrics):
        diam = metric.diameter
        for f in COVER_FRACTIONS:
            eps = f * diam
            _timed(cases, f"{i}/{f}",
                   lambda: bgl.entropy.covering_with_centers(metric, eps, "exact"),
                   _judge_cover(metric, eps))
    _timed(cases, "circle256", lambda: _lattice(circle, 12, (2, 6)), _judge_lattice(1.0))
    _timed(cases, "torus4096", lambda: _lattice(torus, 8, (2, 4)), _judge_lattice(2.0))
    return cases


# ---------------------------------------------------------------------------
# martingale_fourier: exact Doob checks, block chain, Fourier maximal ratios


def mf_inputs(seed: int):
    rng = bgl.fixtures.make_rng(seed)
    samples = [("square", bgl.fourier.square_wave_sample(FOURIER_K))]
    for i in range(FOURIER_TRIG_SAMPLES):
        a, b = bgl.fixtures.random_trig_coeffs(rng, int(rng.integers(3, 13)))
        samples.append((f"trig{i}", bgl.fourier.trig_poly_sample(a, b, FOURIER_K)))
    return samples


def _judge_doob(rep):
    return rep.passed, {"ratio": rep.ratio, "max_norm": rep.max_norm,
                        "member_norm_max": rep.member_norm_max}


def _judge_block(rep):
    outputs = {"ratio": rep.ratio, "kappa": rep.kappa_psi, "tau_norm": rep.tau_norm,
               "rhs": rep.rhs, "doob_margins": [b.doob_margin for b in rep.blocks],
               "moment_margins": [b.moment_margin for b in rep.blocks]}
    return rep.passed and rep.condition.summable, outputs


def _judge_fourier(rep):
    rho_max = max(r for _, row in rep.rho for _, r in row)
    return rep.passed, {"norm_ratio": rep.norm_ratio, "rho_max": rho_max}


def mf_pass(samples) -> list:
    cases: list = []
    ens = _timed(cases, "walk16", lambda: bgl.build_walk_ensemble(WALK_HORIZON),
                 lambda e: (e.exhaustive, {"sigma": [float(s) for s in e.sigma]}))
    if ens is not None:
        for p in DOOB_PS:
            for n in range(1, WALK_HORIZON + 1):
                _timed(cases, f"doob:p{p}:n{n}", lambda: bgl.doob_check(ens, p, n), _judge_doob)
        grid = bgl.PGrid.log_spaced(1.1, 50.0, 48)
        for v in (bgl.norming_identity(), bgl.norming_log_loglog(1.0)):
            _timed(cases, f"block:{v.label}",
                   lambda: bgl.martingale_block_check(ens, bgl.constant(), v, grid),
                   _judge_block)
    grid = bgl.PGrid.log_spaced(1.1, 32.0, 24)
    for label, sample in samples:
        _timed(cases, f"fourier:{label}",
               lambda: bgl.maximal_ratio_check(sample, bgl.constant(), grid, FOURIER_M),
               _judge_fourier)
    return cases


WORKLOADS = {
    "suite": (suite_inputs, suite_pass),
    "chain_wide": (chain_inputs, chain_pass),
    "entropy_cover": (cover_inputs, cover_pass),
    "martingale_fourier": (mf_inputs, mf_pass),
}


# ---------------------------------------------------------------------------
# output checks


def mismatches(out, ref, path="") -> list:
    """Where ``out`` differs from the captured reference ``ref``."""
    if isinstance(ref, bool) or isinstance(out, bool) or isinstance(ref, str):
        return [] if out == ref and type(out) is type(ref) else [f"{path}: {out!r} != {ref!r}"]
    if isinstance(ref, int):
        return [] if isinstance(out, int) and out == ref else [f"{path}: {out!r} != {ref!r}"]
    if isinstance(ref, float):
        if not isinstance(out, (int, float)):
            return [f"{path}: {out!r} is not a number"]
        if math.isnan(ref) or math.isinf(ref):
            same = (math.isnan(ref) and math.isnan(out)) or out == ref
            return [] if same else [f"{path}: {out!r} != {ref!r}"]
        ok = abs(out - ref) <= ATOL + RTOL * abs(ref)
        return [] if ok else [f"{path}: {out!r} != {ref!r} (rtol {RTOL}, atol {ATOL})"]
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: length {len(out) if isinstance(out, list) else '-'} != {len(ref)}"]
        found = []
        for i, (o, r) in enumerate(zip(out, ref)):
            found += mismatches(o, r, f"{path}[{i}]")
        return found
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            return [f"{path}: keys differ"]
        found = []
        for key in ref:
            found += mismatches(out[key], ref[key], f"{path}.{key}")
        return found
    return [] if out == ref else [f"{path}: {out!r} != {ref!r}"]


def check_pass(cases: list, reference: dict) -> tuple[int, int, list]:
    """(attempted, failed, messages) for one pass against its reference.

    Every reference case counts as attempted; a case fails when it is
    missing, raised, returned a false verdict, or mismatched its reference.
    """
    by_id = {c.case_id: c for c in cases if c.checked}
    failed = 0
    messages = []
    for case_id, ref in reference.items():
        case = by_id.get(case_id)
        if case is None:
            problems = ["missing"]
        elif case.error is not None:
            problems = [f"raised {case.error}"]
        else:
            problems = [] if case.verdict else ["verdict is false"]
            problems += mismatches(_roundtrip(case.outputs), ref)
        if problems:
            failed += 1
            messages.append(f"{case_id}: " + "; ".join(problems[:3]))
    extra = sorted(set(by_id) - set(reference))
    if extra:
        failed += len(extra)
        messages.append(f"cases without a reference: {extra[:5]}")
    return len(reference) + len(extra), failed, messages


def _roundtrip(outputs):
    """Outputs as they would read back from the JSON reference file."""
    return json.loads(json.dumps(outputs))
