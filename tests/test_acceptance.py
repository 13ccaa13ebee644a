"""Top-level acceptance matrix.

Each criterion runs at its stated tolerance inside bgl.suite; the tests here
assert the recorded outcome and print one pass/fail line per criterion.
Criterion 12 (determinism) renders the suite twice, once through the real
CLI entry point, and compares bytes.  The verbs run the suite's criteria at
the suite's sub-seeds, so each verb's records equal the suite's.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bgl.cli import main as cli_main
from bgl.errors import DomainError
from bgl.report import Report, to_text
from bgl.suite import CRITERIA, NAMES, VERBS, run_criteria, run_suite

SEED = 20240801

ROOT = Path(__file__).resolve().parents[1]

# sha256 of one kernel call whose cells are dots over 10,001 and 65,536 atoms
KERNEL_HASH = """
import hashlib, numpy as np
from bgl.fixtures import make_rng
from bgl.norms import lp_norm_matrix
rng = make_rng(3)
for atoms in (10_001, 65_536):
    out = lp_norm_matrix(rng.random((3, atoms)), rng.random(atoms), np.array([1.5, 2.0, 7.0]))
    print(hashlib.sha256(out.tobytes()).hexdigest())
"""


@pytest.fixture(scope="module")
def suite_report():
    return run_suite(seed=SEED)


def test_suite_has_one_record_per_criterion(suite_report):
    assert len(suite_report.records) == len(CRITERIA)


def _check(report, name):
    rec = next(r for r in report.records if r.name == name)
    detail = ", ".join(f"{k}={v}" for k, v in rec.fields.items())
    print(f"{'PASS' if rec.passed else 'FAIL'}  {name}  [{detail}]")
    assert rec.passed, f"{name}: {detail}"


def test_criterion_01_pisier_domination_and_sharpness(suite_report):
    _check(suite_report, "pisier_domination_and_sharpness")


def test_criterion_02_generalized_pisier_domination(suite_report):
    _check(suite_report, "generalized_pisier_domination")


def test_criterion_03_chained_product_bound_domination(suite_report):
    _check(suite_report, "chained_product_bound_domination")


def test_criterion_04_fundamental_function_consistency(suite_report):
    _check(suite_report, "fundamental_function_consistency")


def test_criterion_05_fatou_monotone_convergence(suite_report):
    _check(suite_report, "fatou_monotone_convergence")


def test_criterion_06_covering_exact_equals_bruteforce(suite_report):
    _check(suite_report, "covering_exact_equals_bruteforce")


def test_criterion_07_entropy_dimension_of_grids(suite_report):
    _check(suite_report, "entropy_dimension_of_grids")


def test_criterion_08_series_bounds(suite_report):
    _check(suite_report, "series_bounds")


def test_criterion_09_doob_ratio_under_cap(suite_report):
    _check(suite_report, "doob_ratio_under_cap")


def test_criterion_10_martingale_block_chain(suite_report):
    _check(suite_report, "martingale_block_chain")


def test_criterion_11_fourier_maximal_saturation(suite_report):
    _check(suite_report, "fourier_maximal_saturation")


def test_criterion_12_suite_determinism(suite_report, tmp_path):
    first = to_text(suite_report).encode("utf-8")
    out = tmp_path / "suite_rerun.txt"
    code = cli_main(["suite", "--seed", str(SEED), "--out", str(out)])
    second = out.read_bytes()
    ok = code == 0 and first == second
    print(f"{'PASS' if ok else 'FAIL'}  suite_determinism  "
          f"[bytes={len(first)}, identical={first == second}, exit={code}]")
    assert code == 0
    assert first == second


def _run(*args, threads=1, timeout=300) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's bgl, run from the repository
    root with ``threads`` BLAS threads and killed after ``timeout`` seconds."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          timeout=timeout)


def _python(*args, threads=1, timeout=300) -> bytes:
    """stdout of `_run`, which must exit 0."""
    done = _run(*args, threads=threads, timeout=timeout)
    done.check_returncode()
    return done.stdout


def test_bytes_do_not_depend_on_blas_thread_count():
    # OpenBLAS splits a long dot product across threads; the kernel's
    # fixed-size blocks keep every cell's bits the same at any thread count
    for args in (("-c", KERNEL_HASH), ("-m", "bgl.cli", "martingale", "--seed", "7")):
        assert _python(*args, threads=1) == _python(*args, threads=2)


# bgl_norm and fundamental_function on a grid ending at p_max, where psi
# decreases and the argmax is the grid's top point
REFINE_AT_TOP = """
import math, sys, numpy as np
from bgl.measure import DiscreteMeasureSpace, SimpleFunction
from bgl.norms import bgl_norm, fundamental_function
from bgl.psi import PGrid, from_formula
top = float(sys.argv[1])
grid = PGrid.log_spaced(1.05, top, 64, p_max_cap=top)
psi = from_formula(lambda p: 1.0 + p ** -1e-3, 1.0, math.inf)
f = SimpleFunction(DiscreteMeasureSpace(np.full(4, 0.25)), np.array([0.5, 1.0, 2.0, 3.0]))
want = 0.5 ** (1.0 / top) / (1.0 + top ** -1e-3)
print(bgl_norm(f, psi, grid).p_star == top,
      math.isclose(fundamental_function(psi, 0.5, grid), want, rel_tol=1e-12))
"""


@pytest.mark.parametrize("top", ["1e10", "1e300"])
def test_sup_over_p_refinements_end_at_a_huge_top(top):
    # near p = 1e10 adjacent doubles lie further apart than the 1e-6 bracket
    # both loops narrow to; each ends once a round leaves it no narrower
    assert _python("-c", REFINE_AT_TOP, top, timeout=60) == b"True True\n"


@pytest.mark.parametrize("verb", ["norm", "chain"])
def test_verb_ends_at_p_max_1e10(verb):
    out = _python("-m", "bgl.cli", verb, "--seed", "7", "--p-max", "1e10", timeout=120)
    assert out.endswith(b"summary.verdict = ok\n")


def test_psi_overflowing_at_p_max_exits_two():
    # the indicator criterion's psi = p^2 is inf at p = 1e300: one error line
    # naming the flag, and no numpy overflow warning
    done = _run("-m", "bgl.cli", "norm", "--seed", "7", "--p-max", "1e300")
    assert done.returncode == 2 and done.stdout == b""
    assert done.stderr == (b"error: --p-max = 1e+300: power[2](p) = inf at p = 1e+300; "
                           b"psi must be finite and positive on its grid\n")


def test_failed_record_keeps_its_name(suite_report, monkeypatch):
    # an error that ends a criterion fails the record of the name it writes
    from bgl import suite

    def raising(fn):
        @functools.wraps(fn)
        def call(seed, **params):
            raise DomainError(f"forced in {fn.__name__}")
        return call

    monkeypatch.setattr(suite, "CRITERIA", [raising(fn) for fn in CRITERIA])
    failed = run_suite(SEED).records
    assert [r.name for r in failed] == [r.name for r in suite_report.records]
    assert [r.fields["error"] for r in failed] == [f"forced in {fn.__name__}" for fn in CRITERIA]
    assert not any(r.passed for r in failed)


def test_cli_loads_no_scipy():
    # scipy is a test-only dependency
    code = "import sys, bgl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _python("-c", code) == b"[]\n"


# peak RSS of `bgl martingale` at the config cap, horizon 20 (2^20 paths)
WALK20_BUDGET_MIB = 150

# peak RSS of `bgl entropy --seed 20240801`, whose largest input is the
# 4096-point torus; measured 58 MiB with the torus as a product of two
# circles, 186 MiB when it held its 128 MiB distance matrix (2-core x86 VM,
# Python 3.11, numpy 2.4)
ENTROPY_BUDGET_MIB = 80

# runs its argv as a child and prints that child's peak RSS in KiB; a fresh
# parent sees no other child, whatever this test process ran before
PEAK_RSS = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_walk_at_horizon_cap_stays_in_memory_budget(tmp_path):
    cfg = tmp_path / "walk20.cfg"
    cfg.write_text("[scenario]\nkind = martingale\n[martingale]\nhorizon = 20\n")
    kib = int(_python("-c", PEAK_RSS, sys.executable, "-m", "bgl.cli", "martingale",
                      "--config", str(cfg)))
    assert kib < WALK20_BUDGET_MIB * 1024, f"{kib / 1024:.0f} MiB"


def test_covering_criteria_stay_in_memory_budget():
    kib = int(_python("-c", PEAK_RSS, sys.executable, "-m", "bgl.cli", "entropy",
                      "--seed", str(SEED)))
    assert kib < ENTROPY_BUDGET_MIB * 1024, f"{kib / 1024:.0f} MiB"


@pytest.mark.parametrize("verb", ["norm", "entropy", "martingale", "fourier"])
def test_verb_records_equal_suite_records(suite_report, verb):
    records = run_criteria(verb, SEED).records
    expected = [suite_report.records[NAMES.index(name)] for name in VERBS[verb]]
    assert to_text(Report({}, records)) == to_text(Report({}, expected))
