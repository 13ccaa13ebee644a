"""Top-level acceptance matrix.

Each criterion runs at its stated tolerance inside bgl.suite; the tests here
assert the recorded outcome and print one pass/fail line per criterion.
Criterion 12 (determinism) renders the suite twice, once through the real
CLI entry point, and compares bytes.  The verbs run the suite's criteria at
the suite's sub-seeds, so each verb's records equal the suite's.
"""

import pytest

from bgl.cli import main as cli_main
from bgl.report import Report, to_text
from bgl.scenario import default_scenario, run_scenario
from bgl.suite import CRITERIA, NAMES, VERBS, run_suite

SEED = 20240801


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


@pytest.mark.parametrize("verb", ["norm", "entropy", "martingale", "fourier"])
def test_verb_records_equal_suite_records(suite_report, verb):
    records = run_scenario(default_scenario(verb, SEED)).records
    expected = [suite_report.records[NAMES.index(name)] for name in VERBS[verb]]
    assert to_text(Report({}, records)) == to_text(Report({}, expected))
