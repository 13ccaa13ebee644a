import re
from pathlib import Path

import numpy as np
import pytest

from bgl.cli import main as cli_main
from bgl.errors import DomainError
from bgl.fixtures import make_rng, random_nonneg_family
from bgl.measure import DiscreteMeasureSpace, FunctionFamily, load_family, save_family
from bgl.report import Record, Report, to_table, to_text
from bgl.scenario import KINDS, load_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class TestColumnarFormat:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(51)
        fam = random_nonneg_family(rng, 5, 16)
        path = tmp_path / "family.tsv"
        save_family(path, fam)
        loaded = load_family(path)
        assert loaded.labels == fam.labels
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
        rep = run_scenario(scn)
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
        rep = run_scenario(load_scenario(cfg))
        assert rep.all_passed

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
        report = run_scenario(load_scenario(cfg))
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
        loaded = load_scenario(cfg).params["chained_bound"]["family"]
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

    @pytest.mark.parametrize("body, key", [
        ("[fourier]\ndegree_max = 2\n", "[fourier] degree_max = 2"),
        ("[fourier]\nsamples = -1\n", "[fourier] samples = -1"),
        ("[family]\ngenerator = disjoint_indicators\nmembers = 0\n", "[family] members = 0"),
    ], ids=["degree_max_2", "samples_negative", "members_0"])
    def test_value_below_its_least_exits_two(self, body, key, tmp_path, capsys):
        # a value no check can run on is named in one line before any check
        kind = "fourier" if "fourier" in body else "chain"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[scenario]\nkind = {kind}\n{body}")
        assert cli_main([kind, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be at least ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind, body, section", [
        ("fourier", "[chain]\ntol = 5\n", "chain"),
        ("martingale", "[chain]\ntol = 5\n", "chain"),
        ("chain", "[martingale]\nhorizon = 12\n", "martingale"),
        ("entropy", "[grid]\nn = 32\n", "grid"),
        ("norm", "[nu]\nname = power\n", "nu"),
        ("fourier", "[family]\ngenerator = disjoint_indicators\n", "family"),
    ], ids=["fourier_chain_tol", "martingale_chain_tol", "chain_martingale_horizon",
            "entropy_grid_n", "norm_nu", "fourier_family"])
    def test_key_reaching_no_criterion_exits_two(self, kind, body, section, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[scenario]\nkind = {kind}\n{body}")
        with pytest.raises(DomainError, match=rf"^\[{section}\] reaches no {kind} criterion$"):
            load_scenario(cfg)
        out = tmp_path / "report.txt"
        assert cli_main([kind, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_verb_config_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "norm.cfg"
        cfg.write_text("[scenario]\nkind = norm\n")
        assert cli_main(["chain", "--config", str(cfg)]) == 2

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
    def test_p_max_caps_every_grid(self, verb, tmp_path):
        # no valid p-grid lies below 1.1, so the capped grid fails its check
        out = tmp_path / "report.txt"
        assert cli_main([verb, "--p-max", "0.5", "--out", str(out)]) == 1
        assert "summary.verdict = FAIL" in out.read_text()

    @pytest.mark.parametrize("verb,body", [
        ("chain", "[family]\ncount = 2\n[chain]\nk_max = 0\n"),
        ("fourier", "[fourier]\nm_list = 0\n"),
        ("martingale", "[martingale]\np = 1\n"),
        ("martingale", "[martingale]\nhorizon = 0\n"),
    ], ids=["k_max_0", "m_list_0", "doob_p_1", "horizon_0"])
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
    @pytest.mark.parametrize("verb", KINDS)
    def test_bad_flag_rejected(self, verb, flag, capsys):
        assert cli_main([verb, *flag]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("verb", KINDS)
    def test_tol_only_where_a_criterion_takes_it(self, verb, tmp_path, capsys):
        # the capped grid fails every grid check, so an accepted run ends fast
        out = tmp_path / "report.txt"
        code = cli_main([verb, "--tol", "0.5", "--p-max", "0.5", "--out", str(out)])
        if verb in ("chain", "martingale", "suite"):
            assert code == 1 and out.exists()
        else:
            assert code == 2 and not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", KINDS)
    def test_p_max_only_where_a_criterion_takes_it(self, verb, tmp_path, capsys):
        # no valid p-grid lies below 1.1, so an accepted run fails its grid checks
        out = tmp_path / "report.txt"
        code = cli_main([verb, "--p-max", "0.5", "--out", str(out)])
        if verb == "entropy":
            assert code == 2 and not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code == 1 and out.exists()

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
