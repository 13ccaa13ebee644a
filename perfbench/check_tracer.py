"""Check that the tracer sees every call: compare its span counts with cProfile.

Run from the root of a checkout:

    python3 perfbench/check_tracer.py [workload] [seed]     # default: suite 0

One pass runs with the tracer installed and under cProfile.  For every span
name that wraps one bgl function, the span count must equal cProfile's
ncalls for that function's code; the L_p kernel is printed first.
Exits 1 on any mismatch.
"""

import cProfile
import os
import pstats
import sys

import run


def main(argv) -> int:
    workload = argv[0] if argv else "suite"
    seed = int(argv[1]) if len(argv) > 1 else 0
    bgl = run.import_bgl(os.getcwd())
    import tracer as tracer_mod
    import workloads

    make_inputs, run_pass = workloads.WORKLOADS[workload]
    inputs = make_inputs(workloads.input_seed(workload, seed))
    tracer = tracer_mod.Tracer()
    tracer.install(bgl)
    profile = cProfile.Profile()
    try:
        profile.runcall(run_pass, inputs)
    finally:
        tracer.uninstall()

    stats = pstats.Stats(profile).stats
    table = tracer.span_table()
    names = ["norms.lp_norm_matrix"] + sorted(n for n in tracer.wrapped if n != "norms.lp_norm_matrix")
    bad = 0
    for name in names:
        code = tracer.wrapped[name].__code__
        ncalls = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]
        spans = table.get(name, {}).get("calls", 0)
        if ncalls != spans or name == "norms.lp_norm_matrix":
            print(f"{name}: tracer {spans} spans, cProfile {ncalls} calls")
        bad += ncalls != spans
    print(f"{workload}: {bad} mismatches over {len(names)} span names")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
