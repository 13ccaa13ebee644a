"""bgl benchmark: one seeded workload, timed end to end or traced per layer.

Run from the root of a checkout (the directory holding ``src/bgl``):

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

The load is one process and one client in a closed loop: each pass starts
after the previous one ends, and another pass starts while it is expected to
end nearer to ``--seconds`` than stopping would (there is always one).
BLAS threads are pinned to 1.  Every pass is checked against the outputs in
``perfbench/reference/`` (see ``capture.py``), and the L_p kernel is checked
against an mpmath oracle outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including the
tracing overhead; the spans go to ``perfbench/out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5          # this process plus four fresh ones
TAIL_BEYOND = 10           # cases beyond the reported tail percentile


def import_bgl(root: str):
    """Import bgl from ``root/src`` and nowhere else, with every submodule."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import bgl
    if os.path.dirname(os.path.realpath(bgl.__file__)) != os.path.realpath(os.path.join(src, "bgl")):
        raise ImportError(f"bgl was imported from {bgl.__file__}, not from {src}")
    for name in ("errors", "measure", "psi", "norms", "entropy", "chaining", "martingale",
                 "fourier", "fixtures", "report", "suite", "scenario", "cli"):
        importlib.import_module("bgl." + name)
    return bgl


def setup(args):
    """Import bgl and generate the seeded inputs; returns (bgl, workloads, inputs, seconds)."""
    t0 = perf_counter()
    bgl = import_bgl(os.getcwd())
    import workloads
    make_inputs, _ = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(workloads.input_seed(args.workload, args.seed))
    return bgl, workloads, inputs, perf_counter() - t0


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def load_reference(workload: str, seed: int) -> dict:
    with gzip.open(os.path.join(HERE, "reference", workload + ".json.gz"), "rt") as fh:
        return json.load(fh)["seeds"][str(seed)]


def case_stats(passes: list) -> tuple[float, float, float, int]:
    """(p50 ms, tail ms, tail percentile, distinct cases).

    A case's time is its median over the run's passes.  The tail is the
    highest whole percentile (nearest rank) with at least TAIL_BEYOND cases
    beyond it; with fewer than 2 * TAIL_BEYOND cases, such as
    ``chain_wide``'s five families, it is the slowest case.
    """
    per_case: dict = {}
    for cases in passes:
        for c in cases:
            if c.seconds is not None:
                per_case.setdefault(c.case_id, []).append(c.seconds)
    times = sorted(1e3 * statistics.median(v) for v in per_case.values())
    n = len(times)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n) if n > TAIL_BEYOND else 0
    if pct >= 50:
        # nearest rank; the floor above leaves at least TAIL_BEYOND beyond it
        tail = times[math.ceil(pct / 100 * n) - 1]
    else:
        tail, pct = times[-1], 100
    return statistics.median(times), tail, pct, n


def machine() -> dict:
    """Versions and thread settings; the CPU model is in ``meta.json``."""
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Loop:
    """Closed-loop passes over one input set, each checked against the reference."""

    def __init__(self, run_pass, inputs, workloads, reference):
        self.run_pass, self.inputs = run_pass, inputs
        self.workloads, self.reference = workloads, reference
        self.attempted = self.failed = 0
        self.messages: list = []

    def one(self):
        t0 = perf_counter()
        cases = self.run_pass(self.inputs)
        elapsed = perf_counter() - t0
        attempted, failed, messages = self.workloads.check_pass(cases, self.reference)
        self.attempted += attempted
        self.failed += failed
        self.messages += messages
        return elapsed, cases


def measure(args, loop):
    walls, passes = [], []
    start = perf_counter()
    while not walls or (perf_counter() - start) + statistics.median(walls) / 2 <= args.seconds:
        wall, cases = loop.one()
        walls.append(wall)
        passes.append(cases)
    return walls, passes


def measure_traced(args, loop, bgl, tracer):
    """Alternate untraced and traced passes; the tracer sees only traced ones."""
    plain, traced = [], []
    start = perf_counter()
    while not plain or (perf_counter() - start) + statistics.median(
            [a + b for a, b in zip(plain, traced)]) / 2 <= args.seconds:
        plain.append(loop.one()[0])
        tracer.install(bgl)
        try:
            traced.append(loop.one()[0])
        finally:
            tracer.uninstall()
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time import and input generation, print it, and exit")
    args = parser.parse_args(argv)

    try:
        bgl, workloads, inputs, setup_s = setup(args)
    except (ImportError, KeyError) as exc:
        print(f"perfbench: cannot set up workload {args.workload!r}: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(setup_s))
        return 0
    try:
        reference = load_reference(args.workload, workloads.input_seed(args.workload, args.seed))
    except (OSError, KeyError) as exc:
        print(f"perfbench: no reference outputs: {exc!r}", file=sys.stderr)
        return 2

    import oracle
    import tracer as tracer_mod

    _, run_pass = workloads.WORKLOADS[args.workload]
    loop = Loop(run_pass, inputs, workloads, reference)
    info = {"workload": args.workload, "seed": args.seed,
            "input_seed": workloads.input_seed(args.workload, args.seed), "machine": machine()}

    if args.trace:
        with tracer_mod.Tracer() as setup_tracer:
            setup_tracer.install(bgl)
            workloads.WORKLOADS[args.workload][0](workloads.input_seed(args.workload, args.seed))
        tracer = tracer_mod.Tracer()
        plain, traced = measure_traced(args, loop, bgl, tracer)
        layers = tracer_mod.layer_metrics(tracer, setup_tracer, len(traced))
        layers["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
        info.update(walls_untraced=plain, walls_traced=traced,
                    kernel_calls_per_norm_base=f"{layers['norms.refine.bgl_norm_calls'][0]:g} bgl_norm calls per pass",
                    spans=len(tracer.span_name))
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.save(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.npz"))
    else:
        setups = [setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
        walls, passes = measure(args, loop)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        p50, tail, pct, n_cases = case_stats(passes)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "case_ms_p50": (p50, "ms"),
            "case_ms_tail": (tail, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_mb, "MiB"),
        }
        info.update(passes=len(walls), walls=walls, setups=setups,
                    case_ms_tail=f"p{pct} of {n_cases} distinct cases")

    oracle_err, oracle_checked, oracle_failed = oracle.run_panel(bgl.norms.lp_norm_matrix)
    attempted = loop.attempted + oracle_checked
    failed = loop.failed + oracle_failed
    if args.trace:
        layers["norms.kernel.oracle_rel_err"] = (oracle_err, "ratio")
        metrics = layers
    info.update(failed_frac=failed / attempted, oracle_rel_err=oracle_err)
    for msg in loop.messages[:20]:
        print("perfbench: check failed:", msg, file=sys.stderr)
    print("# " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
