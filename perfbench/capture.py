"""Capture the reference outputs that every benchmark pass is checked against.

Run from the root of a checkout at a known-good commit:

    python3 perfbench/capture.py                 # every workload
    python3 perfbench/capture.py chain_wide      # one workload

For each of the POOL_SIZE input seeds it runs one pass and stores every
case's outputs (verdict evidence: margins, cover counts, ratios) in
``perfbench/reference/<workload>.json.gz``.  It refuses to store a pass with a
false verdict or a raised call.  Recapture only when a change is meant to
move the outputs, and say so in that change.
"""

import gzip
import io
import json
import os
import sys

import run


def capture(workload: str, bgl, workloads) -> dict:
    make_inputs, run_pass = workloads.WORKLOADS[workload]
    seeds = {}
    for seed in sorted({workloads.input_seed(workload, k) for k in range(workloads.POOL_SIZE)}):
        cases = run_pass(make_inputs(seed))
        cases = [c for c in cases if c.checked]
        bad = [c.case_id for c in cases if c.error is not None or not c.verdict]
        if bad:
            raise SystemExit(f"{workload} seed {seed}: failing cases {bad[:5]}")
        seeds[str(seed)] = {c.case_id: c.outputs for c in cases}
        print(f"{workload} seed {seed}: {len(cases)} cases", file=sys.stderr)
    return {"workload": workload, "rtol": workloads.RTOL, "atol": workloads.ATOL,
            "machine": run.machine(), "seeds": seeds}


def main(argv) -> int:
    bgl = run.import_bgl(os.getcwd())
    import workloads
    names = argv or list(workloads.WORKLOADS)
    os.makedirs(os.path.join(run.HERE, "reference"), exist_ok=True)
    for name in names:
        data = capture(name, bgl, workloads)
        path = os.path.join(run.HERE, "reference", name + ".json.gz")
        with gzip.GzipFile(path, "wb", mtime=0) as raw, io.TextIOWrapper(raw) as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
