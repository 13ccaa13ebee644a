import functools
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from bgl.cli import main as cli_main
from bgl.errors import DomainError
from bgl.fixtures import make_rng, random_nonneg_family
from bgl.measure import DiscreteMeasureSpace, FunctionFamily, load_family, save_family
from bgl.psi import from_formula
from bgl.report import Record, Report, to_table, to_text
from bgl.scenario import load_scenario
from bgl.suite import CRITERIA, NAMES, VERBS, run_criteria

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run(scn):
    return run_criteria(scn.kind, scn.seed, scn.overrides)


def spy_criteria(monkeypatch) -> dict:
    """Replace every criterion by a passing stub with its signature; the
    returned dict fills with criterion name -> the parameters it was given."""
    from bgl import suite

    seen = {}

    def spy(fn):
        @functools.wraps(fn)
        def call(seed, **params):
            seen[fn.__name__.removeprefix("criterion_")] = params
            return Record(fn.__name__, True)
        return call

    monkeypatch.setattr(suite, "CRITERIA", [spy(fn) for fn in suite.CRITERIA])
    return seen


DOCUMENTED = (
    "[scenario]\nkind = suite\nseed = 3\n"
    "[grid]\nlo = 1.1\np_max = 50\nn = 16\n"
    "[psi]\nname = table\npoints = 1 2 4 64\nvalues = 1 2 3 3\n"
    "[nu]\nname = ratio\nkappa = 1\n"
    "[family]\ngenerator = random_nonneg\nmembers = 3\natoms = 8\ncount = 2\n"
    "[chain]\ntheta = 0.5\nk_max = 8\ntol = 1e-9\n"
    "[norm]\ndeltas = 0.5\natoms = 16\natom_mass = 0.0625\n"
    "[martingale]\nhorizon = 4\np = 2\n"
    "[fourier]\nm_list = 8\ndegree_max = 4\nsamples = 1\ngrid_points = 64\n")


class TestColumnarFormat:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(51)
        fam = random_nonneg_family(rng, 5, 16)
        path = tmp_path / "family.tsv"
        save_family(path, fam)
        loaded = load_family(path)
        assert np.array_equal(loaded.space.weights, fam.space.weights)
        assert np.array_equal(loaded.values, fam.values)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0 1.0 2.0\n")
        with pytest.raises(DomainError):
            load_family(path)

    def test_bad_header_keys(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# id mass f\n0 1.0 2.0\n")
        with pytest.raises(DomainError):
            load_family(path)

    @pytest.mark.parametrize("body, message", [
        ("# atom_id weight a b c\n0 1.0 2.0 3.0\n", "value columns do not match the header"),
        ("# atom_id weight a\n0 1.0 2.0\n1 1.0 3.0\n0 1.0 4.0\n", "atom ids must be unique"),
    ], ids=["labels_off_columns", "duplicate_ids"])
    def test_header_and_ids_checked_then_dropped(self, tmp_path, body, message):
        path = tmp_path / "bad.tsv"
        path.write_text(body)
        with pytest.raises(DomainError, match=message):
            load_family(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.tsv"
        path.write_text(f"# atom_id weight a b\n0 1.0 2.0 {bad}\n1 1.0 1.0 3.0\n")
        with pytest.raises(DomainError):
            load_family(path)


class TestReportFormats:
    def make_report(self):
        return Report(meta={"kind": "demo", "seed": 3}, records=[
            Record("alpha", True, {"value": 1.5, "count": 2}),
            Record("beta", False, {"reason": "wrong"}),
            Record("gamma", None, {"note": "informational"}),
        ])

    def test_text_is_stable_and_flagged(self):
        rep = self.make_report()
        text = to_text(rep)
        assert text == to_text(rep)
        assert "record.001.pass = false" in text
        assert "summary.verdict = FAIL" in text
        assert "record.002.pass = n/a" in text

    def test_counts(self):
        rep = self.make_report()
        assert rep.counts == (1, 1, 1)
        assert not rep.all_passed

    def test_table_renders(self):
        table = to_table(self.make_report())
        assert "alpha" in table and "FAIL" in table

    def test_empty_report_is_valid(self):
        rep = Report(meta={"kind": "demo", "seed": 0})
        text = to_text(rep)
        assert rep.all_passed
        assert "summary.verdict = ok" in text
        assert to_table(rep)


class TestScenarioConfig:
    def test_parse_and_run(self, tmp_path):
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(
            "[scenario]\nkind = chain\nseed = 11\n"
            "[family]\ngenerator = random_nonneg\nmembers = 6\natoms = 24\ncount = 3\n"
            "[chain]\ntheta = 0.4 0.6\n"
            "[grid]\nn = 32\np_max = 60\n"
        )
        scn = load_scenario(cfg)
        assert scn.kind == "chain" and scn.seed == 11
        rep = run(scn)
        assert rep.all_passed

    def test_family_from_file(self, tmp_path):
        rng = make_rng(52)
        fam = random_nonneg_family(rng, 4, 12)
        fam_path = tmp_path / "fam.tsv"
        save_family(fam_path, fam)
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(
            "[scenario]\nkind = chain\nseed = 1\n"
            f"[family]\ngenerator = file\npath = {fam_path}\n"
            "[grid]\nn = 32\np_max = 60\n"
        )
        rep = run(load_scenario(cfg))
        assert rep.all_passed

    def test_config_not_utf8_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"[scenario]\nkind = norm\n# caf\xe9\n")
        with pytest.raises(DomainError, match="^unreadable scenario config: 'utf-8' codec"):
            load_scenario(cfg)
        out = tmp_path / "report.txt"
        assert cli_main(["norm", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable scenario config: ") and err.count("\n") == 1

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nkind = chain\n[nonsense]\nx = 1\n")
        with pytest.raises(DomainError):
            load_scenario(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nkind = chain\nspeed = 9\n")
        with pytest.raises(DomainError):
            load_scenario(cfg)

    def test_unknown_kind_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nkind = dance\n")
        with pytest.raises(DomainError):
            load_scenario(cfg)

    def test_single_theta_matches_direct_call(self, tmp_path):
        # one family, one theta, one nu: the chained-bound record's margin
        # reproduces a direct call
        from bgl.chaining import chained_product_bound
        from bgl.norms import natural_psi
        from bgl.psi import PGrid, power

        rng = make_rng(53)
        fam = random_nonneg_family(rng, 6, 24)
        save_family(tmp_path / "fam.tsv", fam)
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(
            "[scenario]\nkind = chain\nseed = 53\n"
            "[family]\ngenerator = file\npath = fam.tsv\n"
            "[nu]\nname = power\nbeta = 1.0\n"
            "[chain]\ntheta = 0.5\n"
            "[grid]\nlo = 1.05\nn = 32\np_max = 60\n"
        )
        report = run(load_scenario(cfg))
        rec = next(r for r in report.records if r.name == "chained_product_bound_domination")
        grid = PGrid.log_spaced(1.05, 60.0, 32, p_max_cap=60.0)
        loaded = load_family(tmp_path / "fam.tsv")
        direct = chained_product_bound(loaded, natural_psi(loaded, grid),
                                       power(1.0), grid, 0.5)
        margin = (direct.bound_value - direct.exact_sup_norm) / direct.exact_sup_norm
        assert rec.fields["checked"] == 1
        assert rec.fields["worst_rel_margin"] == pytest.approx(margin, rel=1e-12)

    def test_failing_record_names_first_violation(self, monkeypatch):
        import dataclasses

        from bgl import suite

        real = suite.chained_product_bounds
        monkeypatch.setattr(suite, "chained_product_bounds", lambda *a, **k: tuple(
            dataclasses.replace(rep, bound_value=0.0) for rep in real(*a, **k)))
        rec = suite.criterion_chained_bound(5, count=2, members=(4, 5), atoms=16,
                                            thetas=(0.5,))
        assert not rec.passed and rec.fields["violations"] == 4
        assert (rec.fields["family_index"], rec.fields["theta"], rec.fields["nu"]) \
            == (0, 0.5, "const[1]")

    def test_family_path_relative_to_config(self, tmp_path, monkeypatch):
        rng = make_rng(54)
        fam = random_nonneg_family(rng, 3, 8)
        (tmp_path / "cfg").mkdir()
        save_family(tmp_path / "cfg" / "fam.tsv", fam)
        cfg = tmp_path / "cfg" / "chain.cfg"
        cfg.write_text("[scenario]\nkind = chain\n"
                       "[family]\ngenerator = file\npath = fam.tsv\n")
        monkeypatch.chdir(tmp_path)
        loaded = dict(load_scenario(cfg).overrides)["[family] generator"]["family"]
        assert np.array_equal(loaded.values, fam.values)

    @pytest.mark.parametrize("section", [
        "[scenario]\nkind = chain\nseed = x\n",
        "[scenario]\nkind = chain\n[grid]\nn = abc\n",
        "[scenario]\nkind = chain\n[psi]\nname = bogus\n",
        "[scenario]\nkind = chain\n[family]\ngenerator = bogus\n",
        "[scenario]\nkind = chain\n[grid]\np_max = nan\n",
        "[scenario]\nkind = chain\n[chain]\ntheta =\n",
    ], ids=["bad_seed", "bad_grid_n", "unknown_psi", "unknown_generator", "nan_p_max",
            "empty_theta"])
    def test_bad_value_rejected_at_load(self, tmp_path, capsys, section):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(section)
        with pytest.raises(DomainError):
            load_scenario(cfg)
        assert cli_main(["chain", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    # (verb, config body, flags, the error line): each value's rule, or a rule
    # spanning two parameters, rejects it before any criterion runs
    REJECTED = {
        "degree_max_2": ("fourier", "[fourier]\ndegree_max = 2\n", (),
                         "[fourier] degree_max = 2: must be at least 3"),
        "samples_negative": ("fourier", "[fourier]\nsamples = -1\n", (),
                             "[fourier] samples = -1: must be at least 0"),
        "members_0": ("chain", "[family]\ngenerator = disjoint_indicators\nmembers = 0\n", (),
                      "[family] members = 0: must be at least 1"),
        # np.eye asks numpy for 7.28 TiB, which fails at once
        "members_huge": ("chain", "[family]\ngenerator = disjoint_indicators\nmembers = 1000000\n",
                         (), "[family] members = 1000000: "
                             "a 1000000 x 1000000 family does not fit in memory"),
        "random_members_0": ("chain", "[family]\nmembers = 0\n", (),
                             "[family] members = 0: must be at least 1"),
        "random_members_negative": ("chain", "[family]\nmembers = -3\n", (),
                                    "[family] members = -3: must be at least 1"),
        "family_atoms_negative": ("chain", "[family]\natoms = -1\n", (),
                                  "[family] atoms = -1: must be at least 1"),
        "norm_atoms_negative": ("norm", "[norm]\natoms = -2\n", (),
                                "[norm] atoms = -2: must be at least 1"),
        "grid_n_negative": ("chain", "[grid]\nn = -5\n", (),
                            "[grid] n = -5: must be at least 2"),
        "grid_points_negative": ("fourier", "[fourier]\ngrid_points = -8\n", (),
                                 "[fourier] grid_points = -8: need an even grid size K >= 8"),
        "horizon_0": ("martingale", "[martingale]\nhorizon = 0\n", (),
                      "[martingale] horizon = 0: must be at least 1"),
        "horizon_25": ("martingale", "[martingale]\nhorizon = 25\n", (),
                       "[martingale] horizon = 25: must be at most 20"),
        "k_max_0": ("chain", "[chain]\nk_max = 0\n", (), "[chain] k_max = 0: must be at least 1"),
        "theta_1_5": ("chain", "[chain]\ntheta = 0.5 1.5\n", (),
                      "[chain] theta = 1.5: theta must lie in (0, 1)"),
        "m_list_0": ("fourier", "[fourier]\nm_list = 16 0\n", (),
                     "[fourier] m_list = 0: must be at least 1"),
        **{f"doob_p_{name}": ("martingale", f"[martingale]\np = {p}\n", (),
                              f"[martingale] p = {float(p)}: Doob inequality needs p > 1")
           for name, p in (("0_5", "0.5"), ("1", "1"), ("negative", "-2"))},
        "grid_lo_0_5": ("chain", "[grid]\nlo = 0.5\n", (), "[grid] lo = 0.5: must be above 1"),
        "grid_lo_300": ("chain", "[grid]\nlo = 300\n", (),
                        "[grid] lo = 300.0: must lie below p_max = 200.0"),
        "atom_mass_negative": ("norm", "[norm]\natom_mass = -1\n", (),
                               "[norm] atom_mass = -1.0: must be above 0"),
        "deltas_negative": ("norm", "[norm]\ndeltas = 1 -1\n", (),
                            "[norm] deltas = -1.0: must be above 0"),
        "grid_points_9": ("fourier", "[fourier]\ngrid_points = 9\n", (),
                          "[fourier] grid_points = 9: need an even grid size K >= 8"),
        "m_list_512": ("fourier", "[fourier]\nm_list = 16 512\n", (),
                       "[fourier] m_list = 512: must be at most grid_points/4 = 256"),
        "grid_points_64": ("fourier", "[fourier]\ngrid_points = 64\n", (),
                           "[fourier] grid_points = 64: must be at least 4 * max(m_list) = 512"),
        "grid_p_max_1_08": ("martingale", "[grid]\np_max = 1.08\n", (),
                            "[grid] p_max = 1.08: must exceed the grid's lower end 1.1"),
        **{f"{verb}_p_max_{name}": (verb, "", ("--p-max", p),
                                    f"--p-max = {float(p)}: must exceed the grid's lower end "
                                    f"{1.05 if verb in ('chain', 'norm') else 1.1}")
           for verb in ("chain", "norm", "martingale", "fourier")
           for name, p in (("0_5", "0.5"), ("1", "1.0"), ("negative", "-3"))},
        **{f"{verb}_p_max_1_08": (verb, "", ("--p-max", "1.08"),
                                  "--p-max = 1.08: must exceed the grid's lower end 1.1")
           for verb in ("martingale", "norm", "fourier")},
        # each psi's support must hold the grids it meets, from grid_lo to p_max
        "psi_ratio_2": ("chain", "[psi]\nname = ratio\nkappa = 2\n[family]\ncount = 2\n", (),
                        "[psi] name: p=1.05 outside open support (2.0, inf) of ratio[2]"),
        "nu_ratio_2": ("chain", "[nu]\nname = ratio\nkappa = 2\n", (),
                       "[nu] name: p=1.05 outside open support (2.0, inf) of ratio[2]"),
        "nu_ratio_2_with_psi": ("chain", "[psi]\nname = constant\n[nu]\nname = ratio\nkappa = 2\n",
                                (), "[nu] name: p=1.05 outside open support (2.0, inf) of ratio[2]"),
        "norm_psi_ratio_2": ("norm", "[psi]\nname = ratio\nkappa = 2\n", (),
                             "[psi] name: p=1.05 outside open support (2.0, inf) of ratio[2]"),
        "psi_table": ("norm", "[psi]\nname = table\npoints = 1 2 4\nvalues = 1 2 3\n", (),
                      "[psi] name: p=200.0 outside open support (1.0, 4.0) of table"),
        "psi_table_p_max": ("chain", "[psi]\nname = table\npoints = 1 8\nvalues = 1 2\n",
                            ("--p-max", "9"),
                            "[psi] name: p=9.0 outside open support (1.0, 8.0) of table"),
        # and be finite and positive at both ends
        "psi_power_300": ("norm", "[psi]\nname = power\nbeta = 300\n", (),
                          "[psi] name: power[300](p) = inf at p = 200; "
                          "psi must be finite and positive on its grid"),
    }

    @pytest.mark.parametrize("case", REJECTED)
    def test_value_below_its_least_exits_two(self, case, tmp_path, monkeypatch, capsys):
        # a value no check can run on is named in one line before any check runs
        verb, body, flags, message = self.REJECTED[case]
        seen = spy_criteria(monkeypatch)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[scenario]\nkind = {verb}\n{body}")
        out = tmp_path / "report.txt"
        assert cli_main([verb, "--config", str(cfg), *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert seen == {} and not out.exists()

    def test_psi_from_the_api_is_checked_at_both_grid_ends(self):
        # an evaluator may return one value for every p
        flat = from_formula(lambda p: 2.0, 1.0, math.inf)
        assert all(r.passed for r in run_criteria("norm", 7, [("api", {"psis": [flat]})]).records)
        below = from_formula(lambda p: p - 1.5, 1.0, math.inf)  # negative at grid_lo = 1.05
        with pytest.raises(DomainError, match=r"^api: formula\(p\) = -0\.4\d* at p = 1\.05; "
                                              r"psi must be finite and positive on its grid$"):
            run_criteria("norm", 7, [("api", {"psis": [below]})])

    @pytest.mark.parametrize("verb, body, flags, code", [
        ("chain", "", ("--p-max", "1.08"), 0),
        ("chain", "[family]\ncount = 0\n", (), 1),
    ], ids=["chain_p_max_1_08", "count_0"])
    def test_value_inside_its_rule_runs(self, verb, body, flags, code, tmp_path):
        # 1.08 lies above the chain grids' lower end 1.05; count has no rule
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(f"[scenario]\nkind = {verb}\n{body}")
        out = tmp_path / "report.txt"
        assert cli_main([verb, "--config", str(cfg), *flags, "--out", str(out)]) == code
        text = out.read_text()
        assert ".error = " not in text
        assert text.count("reason = no case was checked") == (3 if code else 0)

    @pytest.mark.parametrize("kind, body, source", [
        ("fourier", "[chain]\ntol = 5\n", "[chain] tol"),
        ("chain", "[martingale]\nhorizon = 12\n", "[martingale] horizon"),
        ("entropy", "[grid]\nn = 32\n", "[grid] n"),
        ("norm", "[nu]\nname = power\n", "[nu] name"),
        ("fourier", "[family]\ngenerator = disjoint_indicators\n", "[family] generator"),
    ], ids=["fourier_chain_tol", "chain_martingale_horizon", "entropy_grid_n", "norm_nu",
            "fourier_family"])
    def test_key_reaching_no_criterion_exits_two(self, kind, body, source, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[scenario]\nkind = {kind}\n{body}")
        with pytest.raises(DomainError,
                           match=rf"^{re.escape(source)} reaches no {kind} criterion$"):
            run(load_scenario(cfg))
        out = tmp_path / "report.txt"
        assert cli_main([kind, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {source} reaches no {kind} criterion\n"

    def test_chain_tol_reaches_block_chain(self, tmp_path, monkeypatch):
        # [chain] tol is the file form of --tol: it reaches every criterion declaring tol
        seen = spy_criteria(monkeypatch)
        cfg = tmp_path / "martingale.cfg"
        cfg.write_text("[scenario]\nkind = martingale\n[chain]\ntol = 0.25\n")
        assert cli_main(["martingale", "--config", str(cfg),
                         "--out", str(tmp_path / "r.txt")]) == 0
        assert seen == {"doob": {}, "block_chain": {"tol": 0.25}}

    def test_no_two_keys_set_one_parameter(self, tmp_path):
        # a parameter name set by two keys would reach the criteria of both;
        # [norm] atoms sets space_atoms, so [family] atoms cannot reach indicator
        save_family(tmp_path / "fam.tsv", random_nonneg_family(make_rng(55), 3, 8))
        (tmp_path / "suite.cfg").write_text(DOCUMENTED)
        (tmp_path / "file.cfg").write_text(
            "[scenario]\nkind = chain\n[family]\ngenerator = file\npath = fam.tsv\n")
        setters = {}
        for name in ("suite.cfg", "file.cfg"):
            for source, params in load_scenario(tmp_path / name).overrides:
                for param in params:
                    setters.setdefault(param, set()).add(source)
        assert {param: keys for param, keys in setters.items() if len(keys) > 1} == {}

    def test_each_key_reaches_the_criteria_that_declare_it(self, tmp_path, monkeypatch):
        seen = spy_criteria(monkeypatch)
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(DOCUMENTED)
        overrides = load_scenario(cfg).overrides
        assert run_criteria("suite", 3, overrides).all_passed
        declared = {name: set(inspect.signature(fn).parameters)
                    for name, fn in zip(NAMES, CRITERIA)}
        reach = {source: sorted(name for name in NAMES if declared[name] & set(params))
                 for source, params in overrides}
        assert reach == {
            "[family] members": ["chained_bound", "generalized_pisier", "pisier"],
            "[family] count": ["chained_bound", "generalized_pisier", "pisier"],
            "[family] atoms": ["chained_bound", "generalized_pisier", "pisier"],
            "[psi] name": ["chained_bound", "generalized_pisier", "indicator"],
            "[nu] name": ["chained_bound"],
            "[grid] lo": ["chained_bound", "generalized_pisier", "indicator"],
            "[grid] p_max": ["block_chain", "chained_bound", "fatou", "fourier",
                             "generalized_pisier", "indicator"],
            "[grid] n": ["chained_bound", "generalized_pisier", "indicator"],
            "[chain] theta": ["chained_bound"],
            "[chain] k_max": ["chained_bound"],
            "[chain] tol": ["block_chain", "chained_bound", "generalized_pisier", "pisier"],
            "[norm] deltas": ["indicator"],
            "[norm] atoms": ["indicator"],
            "[norm] atom_mass": ["indicator"],
            "[martingale] horizon": ["block_chain", "doob"],
            "[martingale] p": ["doob"],
            "[fourier] m_list": ["fourier"],
            "[fourier] samples": ["fourier"],
            "[fourier] degree_max": ["fourier"],
            "[fourier] grid_points": ["fourier"],
        }
        # and each criterion got exactly the parameters it declares
        for name, params in seen.items():
            expected = {param: value for _, values in overrides
                        for param, value in values.items() if param in declared[name]}
            assert params.keys() == expected.keys(), name

    def test_every_parameter_has_a_rule(self, tmp_path, monkeypatch):
        # a new key or flag cannot skip the rule table: each parameter it sets
        # has a rule, or is count or an object its constructor checks at load
        from bgl import cli
        from bgl.suite import _RULES

        no_rule = ("count", "family", "pairs", "psi", "psis", "nus")
        spy_criteria(monkeypatch)
        given = []

        def record(kind, seed, overrides):
            given.extend(overrides)
            return run_criteria(kind, seed, overrides)

        monkeypatch.setattr(cli, "run_criteria", record)
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(DOCUMENTED)
        assert cli_main(["suite", "--config", str(cfg), "--p-max", "40", "--tol", "0.5",
                         "--out", str(tmp_path / "r.txt")]) == 0
        names = {param for _, values in given for param in values}
        assert {"p_max", "tol"} <= names and not set(no_rule) & set(_RULES)
        assert names - set(no_rule) == set(_RULES)

    @pytest.mark.parametrize("key, flag, param", [
        ("[grid]\np_max = 50\n", "--p-max", "p_max"),
        ("[chain]\ntol = 0.5\n", "--tol", "tol"),
    ], ids=["p_max", "tol"])
    def test_flag_after_config_wins(self, key, flag, param, tmp_path, monkeypatch):
        seen = spy_criteria(monkeypatch)
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(f"[scenario]\nkind = suite\n{key}")
        out = tmp_path / "report.txt"
        assert cli_main(["suite", "--config", str(cfg), flag, "40", "--out", str(out)]) == 0
        takers = [name for name, params in seen.items() if param in params]
        assert takers and all(seen[name][param] == 40.0 for name in takers)
        p_max = 40.0 if param == "p_max" else 200.0
        assert f"meta.p_max = {p_max}\n" in out.read_text()

    def test_grid_p_max_is_the_cap_meta_reports(self, tmp_path):
        # [grid] p_max is the file form of --p-max, and the flag overrides it
        cfg = tmp_path / "chain.cfg"
        cfg.write_text("[scenario]\nkind = chain\n"
                       "[family]\nmembers = 3\natoms = 8\ncount = 1\n"
                       "[grid]\np_max = 50\nn = 16\n")
        out = tmp_path / "report.txt"
        assert cli_main(["chain", "--config", str(cfg), "--out", str(out)]) == 0
        assert "meta.p_max = 50.0\n" in out.read_text()
        assert cli_main(["chain", "--config", str(cfg), "--p-max", "40",
                         "--out", str(out)]) == 0
        assert "meta.p_max = 40.0\n" in out.read_text()

    def test_grid_p_max_reaches_fatou(self, tmp_path, monkeypatch):
        from bgl import suite

        caps = []
        real = suite.fatou_check

        def spy(chain, full, psi, grid):
            caps.append(grid.points[-1])
            return real(chain, full, psi, grid)

        monkeypatch.setattr(suite, "fatou_check", spy)
        cfg = tmp_path / "norm.cfg"
        cfg.write_text("[scenario]\nkind = norm\n[norm]\ndeltas = 1\n[grid]\np_max = 50\n")
        assert cli_main(["norm", "--config", str(cfg), "--out", str(tmp_path / "r.txt")]) == 0
        assert caps == [pytest.approx(50.0)]

    def test_grid_p_max_in_entropy_config_exits_two(self, tmp_path, capsys):
        # the flag's rule and message: no entropy criterion has a p-grid
        cfg = tmp_path / "entropy.cfg"
        cfg.write_text("[scenario]\nkind = entropy\n[grid]\np_max = 50\n")
        out = tmp_path / "report.txt"
        assert cli_main(["entropy", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: [grid] p_max reaches no entropy criterion\n"

    @pytest.mark.parametrize("body, key", [
        ("[psi]\nbeta = 3\n", "[psi] beta"),
        ("[family]\npath = nothere.tsv\n", "[family] path"),
        ("[psi]\nname = power\nkappa = 2\n", "[psi] kappa"),
        ("[family]\ngenerator = disjoint_indicators\ncount = 3\n", "[family] count"),
        ("[nu]\nname = constant\npoints = 1 2\n", "[nu] points"),
    ], ids=["beta_without_name", "path_without_file", "kappa_for_power",
            "count_for_disjoint", "points_for_constant"])
    def test_key_the_config_does_not_read_exits_two(self, body, key, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[scenario]\nkind = chain\n{body}")
        with pytest.raises(DomainError, match=rf"^{re.escape(key)} is not read by this config$"):
            load_scenario(cfg)
        out = tmp_path / "report.txt"
        assert cli_main(["chain", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {key} is not read by this config\n"

    def test_every_documented_key_loads(self, tmp_path):
        # no table lists the keys: each one is accepted only because a read takes it
        save_family(tmp_path / "fam.tsv", random_nonneg_family(make_rng(55), 3, 8))
        suite_cfg = tmp_path / "suite.cfg"
        suite_cfg.write_text(DOCUMENTED)
        params = dict(load_scenario(suite_cfg).overrides)
        assert params["[grid] p_max"] == {"p_max": 50.0}
        assert [params[f"[fourier] {key}"] for key in ("m_list", "samples", "degree_max",
                                                       "grid_points")] \
            == [{"m_list": (8,)}, {"samples": 1}, {"degree_max": 4}, {"grid_points": 64}]
        assert params["[martingale] horizon"] == {"horizons": (4,), "horizon": 4}
        assert params["[martingale] p"] == {"ps": (2.0,)}
        assert params["[norm] atoms"] == {"space_atoms": 16}
        assert params["[norm] atom_mass"] == {"atom_mass": 0.0625}
        assert params["[family] members"] == {"members": (3, 4)}
        assert params["[nu] name"]["nus"][0].label == "ratio[1]"
        assert params["[psi] name"]["psi"](np.array([3.0])) == pytest.approx(6 ** 0.5)
        file_cfg = tmp_path / "file.cfg"
        file_cfg.write_text("[scenario]\nkind = chain\n"
                            "[family]\ngenerator = file\npath = fam.tsv\n"
                            "[psi]\nname = power\nbeta = 2\n")
        params = dict(load_scenario(file_cfg).overrides)
        assert params["[family] generator"]["family"].values.shape == (3, 8)
        assert params["[psi] name"]["psi"].label == "power[2]"

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_config_passes(self, path, tmp_path):
        kind = load_scenario(path).kind
        assert cli_main([kind, "--config", str(path), "--out", str(tmp_path / "r.txt")]) == 0


class TestCli:
    def test_norm_verb_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = cli_main(["norm", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("bgl.report.version = 1")

    def test_failing_record_sets_exit_one(self, tmp_path):
        # delta unrealizable on the 1/16-weight space: the record fails
        cfg = tmp_path / "norm.cfg"
        cfg.write_text(
            "[scenario]\nkind = norm\nseed = 1\n"
            "[norm]\ndeltas = 0.3\n"
        )
        out = tmp_path / "report.txt"
        code = cli_main(["norm", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "pass = false" in out.read_text()

    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_out_exits_two(self, target, tmp_path, monkeypatch, capsys):
        # the stub criteria end the run fast; the report is written last
        seen = spy_criteria(monkeypatch)
        out = tmp_path / "missing" / "x.txt" if target == "missing_dir" else tmp_path
        assert cli_main(["fourier", "--out", str(out)]) == 2
        assert seen == {"fourier": {}}
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    def test_verb_config_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "norm.cfg"
        cfg.write_text("[scenario]\nkind = norm\n")
        assert cli_main(["chain", "--config", str(cfg)]) == 2

    def test_kind_mismatch_is_one_error_line(self, capsys):
        assert cli_main(["norm", "--config", str(SCENARIOS / "chain.cfg")]) == 2
        assert capsys.readouterr().err == "error: config is a 'chain' scenario, verb was 'norm'\n"

    def test_martingale_verb_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert cli_main(["martingale", "--seed", "9", "--out", str(a)]) == 0
        assert cli_main(["martingale", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_report(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        cli_main(["fourier", "--seed", "1", "--out", str(a)])
        cli_main(["fourier", "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("verb", ["martingale", "fourier"])
    def test_p_max_caps_every_grid(self, verb, tmp_path, monkeypatch):
        # each grid the verb builds ends at the cap, below its own default end
        from bgl import suite

        caps = []
        real = suite._grid

        def spy(*args, **kwargs):
            grid = real(*args, **kwargs)
            caps.append(grid.points[-1])
            return grid

        monkeypatch.setattr(suite, "_grid", spy)
        out = tmp_path / "report.txt"
        assert cli_main([verb, "--p-max", "20", "--out", str(out)]) == 0
        assert caps and caps == [pytest.approx(20.0)] * len(caps)
        assert "meta.p_max = 20.0\n" in out.read_text()

    # the three sizes ask numpy for 7.28 TiB, which fails at once
    @pytest.mark.parametrize("verb,body", [
        ("norm", "[norm]\natoms = 1000000000000\n"),
        ("fourier", "[fourier]\ngrid_points = 1000000000000\n"),
        ("chain", "[family]\ncount = 2\n[grid]\nn = 1000000000000\n"),
    ], ids=["norm_atoms_huge", "grid_points_huge", "grid_n_huge"])
    def test_bad_config_value_is_a_failed_record(self, verb, body, tmp_path, capsys):
        # a value a check cannot run on fails that check's record with a
        # one-line error instead of ending the run in a traceback
        cfg = tmp_path / f"{verb}.cfg"
        cfg.write_text(f"[scenario]\nkind = {verb}\n{body}")
        out = tmp_path / "report.txt"
        assert cli_main([verb, "--config", str(cfg), "--out", str(out)]) == 1
        lines = out.read_text().splitlines()
        assert any(re.match(r"record\.\d+\.error = ", line) for line in lines)
        # every line is one key = value pair: no message spans two lines
        assert all(re.match(r"(bgl|meta|record|summary)\.\S+ = ", line) for line in lines)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("--tol", "-1"), ("--p-max", "nan")],
                             ids=["negative_tol", "nan_p_max"])
    @pytest.mark.parametrize("verb", VERBS)
    def test_bad_flag_rejected(self, verb, flag, capsys):
        assert cli_main([verb, *flag]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("verb", VERBS)
    def test_tol_only_where_a_criterion_takes_it(self, verb, tmp_path, monkeypatch, capsys):
        # the stub criteria end an accepted run fast
        seen = spy_criteria(monkeypatch)
        out = tmp_path / "report.txt"
        code = cli_main([verb, "--tol", "0.5", "--out", str(out)])
        if verb in ("chain", "martingale", "suite"):
            assert code == 0 and out.exists()
            assert any(params.get("tol") == 0.5 for params in seen.values())
        else:
            assert code == 2 and not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", VERBS)
    def test_p_max_only_where_a_criterion_takes_it(self, verb, tmp_path, monkeypatch, capsys):
        # the stub criteria end an accepted run fast
        seen = spy_criteria(monkeypatch)
        out = tmp_path / "report.txt"
        code = cli_main([verb, "--p-max", "50", "--out", str(out)])
        if verb == "entropy":
            assert code == 2 and not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code == 0 and out.exists()
            assert any(params.get("p_max") == 50.0 for params in seen.values())

    def test_non_finite_family_file_exits_two(self, tmp_path, capsys):
        (tmp_path / "fam.tsv").write_text("# atom_id weight a b\n0 1.0 nan 1.0\n1 1.0 2.0 3.0\n")
        cfg = tmp_path / "chain.cfg"
        cfg.write_text("[scenario]\nkind = chain\n"
                       "[family]\ngenerator = file\npath = fam.tsv\n")
        assert cli_main(["chain", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nothing_checked_fails(self, tmp_path, capsys):
        # count = 0 leaves the domination criteria no family: no vacuous pass
        cfg = tmp_path / "chain.cfg"
        cfg.write_text("[scenario]\nkind = chain\n[family]\ncount = 0\n")
        out = tmp_path / "report.txt"
        assert cli_main(["chain", "--config", str(cfg), "--out", str(out)]) == 1
        text = out.read_text()
        assert text.count("pass = false") == 3
        assert text.count("reason = no case was checked") == 3

    def test_table_format(self, capsys):
        code = cli_main(["martingale", "--format", "table"])
        assert code == 0
        assert "status" in capsys.readouterr().out
