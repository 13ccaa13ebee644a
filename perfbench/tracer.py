"""Span tracer for the bgl benchmark.

The tracer wraps the public functions of each bgl module from outside the
package: every module attribute (and every entry of ``suite.CRITERIA``) that
refers to a wrapped function is swapped for a timing wrapper, so calls that
go through another module's import of the same name are traced too.  A
span records its name, start, end and parent span; spans stay in memory in
flat arrays and are written out once, when the run ends.  Counters such as
kernel cells or semi-metric pairs are taken at the same call boundaries.

A layer's self time is its span time minus the time covered by its child
spans.  Only one thread runs bgl code, so spans nest strictly.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# bgl modules whose public (``__all__``) functions are traced; measure, scenario
# and cli hold no layer the benchmark reports on
TRACED_MODULES = ("psi", "norms", "entropy", "chaining", "martingale", "fourier",
                  "fixtures", "report", "suite")

# chaining functions that return a bound report (optimize_theta and the
# helpers only forward or assemble)
BOUND_FUNCTIONS = ("pisier_bound", "generalized_pisier_bound", "entropy_sum_bound",
                   "chained_product_bound", "exp_orlicz_bound", "mri_chaining_bound")


def _cover_span(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return "entropy.cover." + str(mode)


class Tracer:
    """Records spans and counters while installed on the bgl package."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._patches: list = []
        self.wrapped: dict = {}   # fixed span name -> the one bgl function it wraps

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper that records one span per call of ``fn``.

        ``name`` is a string or a function of the call's (args, kwargs).
        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` run
        outside the span, so their cost lands in the parent's self time.
        """
        fixed = None if callable(name) else self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(args, kwargs))
            if before is not None:
                before(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def _set(self, container, key, value):
        if isinstance(container, list):
            self._patches.append((container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def install(self, bgl_pkg):
        """Wrap every public function of the traced modules wherever a bgl
        module (or the package namespace) holds a reference to it."""
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith(bgl_pkg.__name__ + ".")}
        wrappers = {}
        for short in TRACED_MODULES:
            mod = modules[short]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrapper_for(short, attr, fn))
                    if attr != "covering_with_centers":
                        self.wrapped[f"{short}.{attr}"] = fn
        for fn in modules["suite"].CRITERIA:
            wrappers[id(fn)] = (fn, self.wrap("suite." + fn.__name__, fn))
            self.wrapped["suite." + fn.__name__] = fn

        for holder in (bgl_pkg, *modules.values()):
            for attr, value in list(vars(holder).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(holder, attr, hit[1])
        criteria = modules["suite"].CRITERIA
        for i, fn in enumerate(list(criteria)):
            self._set(criteria, i, wrappers[id(fn)][1])

        self._install_classes(modules)

    def _install_classes(self, modules):
        psi_cls = modules["psi"].PsiFunction
        orig_post = psi_cls.__post_init__
        tracer = self

        def post_init(obj):
            orig_post(obj)
            object.__setattr__(obj, "eval", tracer.wrap("psi.eval", obj.eval))

        self._set(psi_cls, "__post_init__", post_init)
        self._set(psi_cls, "__call__", self.wrap("psi.call", psi_cls.__call__))
        metric_cls = modules["entropy"].SemiMetric
        self._set(metric_cls, "__post_init__",
                  self.wrap("entropy.triangle_check", metric_cls.__post_init__))

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, list):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- per-function hooks -------------------------------------------------

    def _wrapper_for(self, short, attr, fn):
        name = f"{short}.{attr}"
        counts, maxima = self.counts, self.maxima
        if name == "norms.lp_norm_matrix":
            def after(args, kwargs, result):
                shape = np.shape(args[0] if args else kwargs["values"])
                ps = args[2] if len(args) > 2 else kwargs["ps"]
                cells = shape[0] * np.size(ps) * shape[1]
                counts["kernel_cells"] += cells
                maxima["kernel_cells_max"] = max(maxima["kernel_cells_max"], cells)
            return self.wrap(name, fn, after=after)
        if name == "entropy.family_semimetric":
            def before(args, kwargs):
                tracemalloc.start()

            def after(args, kwargs, result):
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                m = result.size
                counts["semimetric_pairs"] += m * (m - 1) // 2
                maxima["semimetric_peak_bytes"] = max(maxima["semimetric_peak_bytes"], peak)
            return self.wrap(name, fn, before=before, after=after)
        if name == "entropy.covering_with_centers":
            return self.wrap(_cover_span, fn)
        if name == "entropy.covering_profile":
            def after(args, kwargs, result):
                counts["cover_levels"] += len(result.levels)
            return self.wrap(name, fn, after=after)
        if name in ("chaining.entropy_sum_bound", "chaining.chained_product_bound"):
            def after(args, kwargs, result):
                counts["chain_reports"] += 1
                counts["chain_truncated"] += not result.saturated
            return self.wrap(name, fn, after=after)
        if name == "martingale.build_walk_ensemble":
            def after(args, kwargs, result):
                counts["martingale_paths"] += result.s_values.shape[0]
            return self.wrap(name, fn, after=after)
        return self.wrap(name, fn)

    # -- summaries ----------------------------------------------------------

    def span_table(self):
        """Per span name: calls, inclusive seconds, self seconds, longest span."""
        name, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        table = {}
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        incl = np.bincount(name, weights=dur, minlength=n_names)
        self_s = np.bincount(name, weights=own, minlength=n_names)
        longest = np.zeros(n_names)
        np.maximum.at(longest, name, dur)
        for i, n in enumerate(self.names):
            table[n] = dict(calls=int(calls[i]), incl_s=float(incl[i]),
                            self_s=float(self_s[i]), max_s=float(longest[i]))
        return table

    def descendant_count(self, ancestor: str, child: str) -> int:
        """Spans named ``child`` that run inside a span named ``ancestor``."""
        if ancestor not in self._ids or child not in self._ids:
            return 0
        a, c = self._ids[ancestor], self._ids[child]
        inside = np.zeros(len(self.span_name), dtype=bool)
        count = 0
        for i, (nid, par) in enumerate(zip(self.span_name, self.span_parent)):
            inside[i] = nid == a or (par >= 0 and inside[par])
            if nid == c and par >= 0 and inside[par]:
                count += 1
        return count

    def save(self, path):
        """Write every span (name table, name id, parent, start, end)."""
        name, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end)

    def _arrays(self):
        return (np.array(self.span_name, dtype=np.int32), np.array(self.span_parent, dtype=np.int32),
                np.array(self.span_start, dtype=np.float64), np.array(self.span_end, dtype=np.float64))


def layer_metrics(passes: Tracer, setup: Tracer, n_passes: int) -> dict:
    """The per-layer metrics, per traced pass (maxima are over all passes).

    ``setup`` traced the generation of the workload's inputs, which the
    fixtures metric adds to the fixture time spent inside one pass.
    """
    t = passes.span_table()
    s = setup.span_table()
    n = max(n_passes, 1)

    def get(name, key="self_s"):
        return t.get(name, {}).get(key, 0.0)

    def total(prefix, key="self_s", table=t):
        return sum(v[key] for k, v in table.items() if k.startswith(prefix))

    kernel_calls = get("norms.lp_norm_matrix", "calls")
    kernel_self = get("norms.lp_norm_matrix")
    norm_calls = get("norms.bgl_norm", "calls")
    in_norm = passes.descendant_count("norms.bgl_norm", "norms.lp_norm_matrix")
    reports = passes.counts["chain_reports"]
    out = {
        "norms.kernel.calls": (kernel_calls / n, "count"),
        "norms.kernel.cells": (passes.counts["kernel_cells"] / n, "count"),
        "norms.kernel.self_s": (kernel_self / n, "s"),
        "norms.kernel.us_per_call": (1e6 * kernel_self / kernel_calls if kernel_calls else 0.0, "us"),
        "norms.kernel.computed_mb_max": (8.0 * passes.maxima["kernel_cells_max"] / 2 ** 20, "MiB"),
        "norms.refine.bgl_norm_calls": (norm_calls / n, "count"),
        "norms.refine.kernel_calls_per_norm": (in_norm / norm_calls if norm_calls else 0.0, "ratio"),
        "norms.refine.self_s": (get("norms.bgl_norm") / n, "s"),
        "norms.refine.fundamental_calls": (get("norms.fundamental_function", "calls") / n, "count"),
        "norms.refine.fundamental_self_s": (get("norms.fundamental_function") / n, "s"),
        "psi.eval_calls": (get("psi.eval", "calls") / n, "count"),
        "psi.self_s": (total("psi.") / n, "s"),
        "entropy.semimetric.calls": (get("entropy.family_semimetric", "calls") / n, "count"),
        "entropy.semimetric.pairs": (passes.counts["semimetric_pairs"] / n, "count"),
        "entropy.semimetric.self_s": (get("entropy.family_semimetric") / n, "s"),
        "entropy.semimetric.peak_mb": (passes.maxima["semimetric_peak_bytes"] / 2 ** 20, "MiB"),
        "entropy.triangle_check_s": (get("entropy.triangle_check") / n, "s"),
        "entropy.cover.exact_calls": (get("entropy.cover.exact", "calls") / n, "count"),
        "entropy.cover.exact_self_s": (get("entropy.cover.exact") / n, "s"),
        "entropy.cover.exact_ms_max": (1e3 * get("entropy.cover.exact", "max_s"), "ms"),
        "entropy.cover.greedy_calls": (get("entropy.cover.greedy", "calls") / n, "count"),
        "entropy.cover.greedy_self_s": (get("entropy.cover.greedy") / n, "s"),
        "entropy.cover.levels": (passes.counts["cover_levels"] / n, "count"),
        "chaining.bound_calls": (sum(get("chaining." + f, "calls") for f in BOUND_FUNCTIONS) / n, "count"),
        "chaining.self_s": (total("chaining.") / n, "s"),
        "chaining.truncated_frac": (passes.counts["chain_truncated"] / reports if reports else 0.0, "ratio"),
        "martingale.build_s": (get("martingale.build_walk_ensemble", "incl_s") / n, "s"),
        "martingale.paths": (passes.counts["martingale_paths"] / n, "count"),
        "martingale.doob_calls": (get("martingale.doob_check", "calls") / n, "count"),
        "martingale.doob_self_s": (get("martingale.doob_check") / n, "s"),
        "martingale.block_self_s": (get("martingale.martingale_block_check") / n, "s"),
        "fourier.coeff_calls": (get("fourier.fourier_coefficients", "calls") / n, "count"),
        "fourier.coeff_self_s": (get("fourier.fourier_coefficients") / n, "s"),
        "fourier.ratio_check_self_s": (get("fourier.maximal_ratio_check") / n, "s"),
        "fixtures.self_s": (total("fixtures.", table=s) + total("fixtures.") / n, "s"),
        "report.render_s": ((get("report.to_text", "incl_s") + get("report.to_table", "incl_s")) / n, "s"),
    }
    for crit in CRITERION_NAMES:
        out[f"suite.{crit}_s"] = (get("suite.criterion_" + crit, "incl_s") / n, "s")
    return out


CRITERION_NAMES = ("pisier", "generalized_pisier", "chained_bound", "indicator", "fatou",
                   "covering_oracle", "dimension", "series", "doob", "block_chain", "fourier")
