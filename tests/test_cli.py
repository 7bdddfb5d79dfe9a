"""End-to-end command-line driver: reports, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from orbitkit import chsolver, cli, freelie, oracle, orbitmethod
from orbitkit.errors import (AutomorphismCheckFailed, DomainMismatch,
                             LinearSystemInconsistent)

SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"
F3 = str(SPEC_DIR / "heisenberg_f3.json")
F5 = str(SPEC_DIR / "heisenberg_f5.json")
Z8 = str(SPEC_DIR / "rank3_z8_p2.json")
Q3 = str(SPEC_DIR / "heisenberg_q3.json")
CENTER = str(SPEC_DIR / "center_rank3.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def check_named(report, name):
    hits = [c for c in report["checks"] if c["name"] == name]
    assert len(hits) == 1, f"no unique check {name!r}"
    return hits[0]


class TestBch:
    def test_prints_series_and_valuation_table(self, capsys):
        code, out, err = run(capsys, "bch", "--degree", "4", "--prime", "3")
        assert code == 0 and not err
        assert "CH_1 = x + y" in out
        assert "CH_2 = (1/2)*[x,y]" in out
        assert "degree" in out and "v_3" in out and "bound" in out

    def test_regime_substituted_series(self, capsys):
        code, out, _ = run(capsys, "bch", "--degree", "4", "--regime",
                           "p3-uniform")
        assert code == 0
        assert "H_1" in out and "CH_1" not in out

    def test_degree_out_of_range(self, capsys):
        code, _, err = run(capsys, "bch", "--degree", "9", "--prime", "3")
        assert code == 2
        assert "InputBoundViolation" in err

    def test_needs_prime(self, capsys):
        code, _, err = run(capsys, "bch", "--degree", "3")
        assert code == 2
        assert "ValueError" in err

    def test_regime_prime_clash(self, capsys):
        code, _, err = run(capsys, "bch", "--degree", "3", "--regime",
                           "p3-uniform", "--prime", "5")
        assert code == 2


class TestSolve:
    def test_generic_report(self, capsys):
        code, rep, _ = run_json(capsys, "solve", "--regime", "generic",
                                "--prime", "3", "--degree", "5")
        assert code == 0
        assert rep["command"] == "solve"
        assert rep["certified_to"] == 5
        assert rep["inputs"] == {"degree": 5, "regime": "generic:3"}
        names = [c["name"] for c in rep["checks"]]
        assert names == ["identity", "output_bounds", "back_substitution"]
        assert all(c["status"] == "PASS" for c in rep["checks"])
        bounds = check_named(rep, "output_bounds")["by_degree"]
        assert bounds["1"] == {"bound": "0", "valuation": "0"}

    def test_sqrtp_rescales(self, capsys):
        code, rep, _ = run_json(capsys, "solve", "--regime", "sqrtp",
                                "--prime", "5", "--degree", "4")
        assert code == 0
        assert check_named(rep, "back_substitution")["rescaled"] is True

    def test_deterministic_output_bytes(self, capsys, tmp_path):
        one, two = tmp_path / "a.json", tmp_path / "b.json"
        for path in (one, two):
            code, _, _ = run(capsys, "solve", "--regime", "p2-half",
                             "--degree", "4", "--output", str(path))
            assert code == 0
        assert one.read_bytes() == two.read_bytes()

    def test_timings_are_opt_in(self, capsys):
        _, plain, _ = run_json(capsys, "solve", "--regime", "generic",
                               "--prime", "3", "--degree", "3")
        _, timed, _ = run_json(capsys, "solve", "--regime", "generic",
                               "--prime", "3", "--degree", "3", "--timings")
        assert "timings" not in plain
        assert "total_s" in timed["timings"]

    def test_unknown_regime(self, capsys):
        code, _, err = run(capsys, "solve", "--regime", "exotic",
                           "--degree", "3")
        assert code == 2


class TestChartable:
    def test_both_methods_match_on_f3(self, capsys):
        code, rep, _ = run_json(capsys, "chartable", "--input", F3)
        assert code == 0
        assert rep["kirillov"] == {"orbits": 11,
                                   "orbit_sizes": {"1": 9, "9": 2},
                                   "degrees": {"1": 9, "3": 2},
                                   "sum_degree_sq": 27}
        assert rep["oracle"] == {"classes": 11,
                                 "degrees": {"1": 9, "3": 2}}
        match = check_named(rep, "match")
        assert match["status"] == "PASS"
        assert match["matched"] == 11
        assert match["max_deviation"] < 1e-8

    def test_kirillov_refused_at_p2(self, capsys):
        code, _, err = run(capsys, "chartable", "--input", Z8,
                           "--method", "kirillov")
        assert code == 2
        assert "RegimeViolation" in err

    def test_oracle_runs_at_p2(self, capsys):
        code, rep, _ = run_json(capsys, "chartable", "--input", Z8,
                                "--method", "oracle")
        assert code == 0
        assert rep["oracle"]["classes"] == 320
        assert "kirillov" not in rep

    def test_impossible_tolerance_fails_matching(self, capsys):
        code, rep, _ = run_json(capsys, "chartable", "--input", F3,
                                "--tolerance", "1e-300")
        assert code == 1
        match = check_named(rep, "match")
        assert match["status"] == "FAIL"
        assert "NoMatching" in match["witness"]

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "chartable", "--input",
                           str(tmp_path / "nope.json"))
        assert code == 2


class TestVerify:
    def test_all_checks_on_f5(self, capsys):
        code, rep, _ = run_json(capsys, "verify", "--input", F5)
        assert code == 0
        status = {c["name"]: c["status"] for c in rep["checks"]}
        assert status == {"idempotents": "PASS", "expstar": "PASS",
                          "twist": "PASS", "p2": "SKIPPED"}
        twist = check_named(rep, "twist")
        assert twist["regime"] == "generic:5"
        assert twist["mode"] == "exhaustive"
        assert all(twist["properties"].values())
        expstar = check_named(rep, "expstar")
        assert expstar["exhaustive"] is True

    def test_p2_suite_on_rank3_z8(self, capsys):
        code, rep, _ = run_json(capsys, "verify", "--input", Z8)
        assert code == 0
        status = {c["name"]: c["status"] for c in rep["checks"]}
        assert status == {"idempotents": "SKIPPED", "expstar": "SKIPPED",
                          "twist": "SKIPPED", "p2": "PASS"}
        p2 = check_named(rep, "p2")
        assert p2["cells"] == 64
        assert p2["irreducibles"] == 320
        assert p2["convolution"] == {"part_b": "exact", "part_a": "skipped",
                                     "expected_failure": [8, 48, 72]}

    def test_subset_of_checks(self, capsys):
        code, rep, _ = run_json(capsys, "verify", "--input", F3,
                                "--checks", "expstar,twist")
        assert code == 0
        assert [c["name"] for c in rep["checks"]] == ["expstar", "twist"]

    def test_explicit_inapplicable_check_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--input", F3, "--checks", "p2")
        assert code == 2
        assert "RegimeViolation" in err

    def test_seed_reaches_the_idempotent_audits(self, capsys, monkeypatch):
        seeds = []

        def spy(name):
            real = getattr(orbitmethod, name)

            def wrapper(*args, **kwargs):
                seeds.append((name, kwargs.get("seed")))
                return real(*args, **kwargs)
            monkeypatch.setattr(orbitmethod, name, wrapper)
        spy("coadjoint_orbits")
        spy("kirillov_character")
        code, _, _ = run_json(capsys, "verify", "--input", F3, "--checks",
                              "idempotents", "--seed", "3")
        assert code == 0
        assert seeds[0] == ("coadjoint_orbits", 3)
        assert set(seeds[1:]) == {("kirillov_character", 3)}

    def test_p2_suite_reuses_the_group(self, capsys, monkeypatch):
        groups = []

        def spy(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                groups.append(kwargs.get("group"))
                return real(*args, **kwargs)
            monkeypatch.setattr(cli, name, wrapper)
        spy("p2_orbit_partition")
        spy("p2_convolution_check")
        code, _, _ = run_json(capsys, "verify", "--input", Z8)
        assert code == 0
        assert len(groups) == 2 and groups[0] is groups[1] is not None

    @pytest.mark.parametrize("spec, checks", [
        (F3, ["idempotents", "expstar", "twist"]), (Z8, ["p2"])],
        ids=["idempotents+expstar", "p2"])
    def test_suites_share_one_partition(self, capsys, monkeypatch, spec,
                                        checks):
        keys = []
        real = oracle._audited_classes

        def spy(group, seed, audits):
            keys.append((seed, audits))
            return real(group, seed, audits)
        monkeypatch.setattr(oracle, "_audited_classes", spy)
        code, rep, _ = run_json(capsys, "verify", "--input", spec,
                                "--seed", "4")
        assert code == 0
        assert [c["name"] for c in rep["checks"]
                if c["status"] == "PASS"] == checks
        assert keys == [(4, 50)]

    def test_unknown_check_name(self, capsys):
        code, _, err = run(capsys, "verify", "--input", F3,
                           "--checks", "bogus")
        assert code == 2
        assert "unknown checks" in err


def _raiser(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


class TestErrorExitCodes:
    """Every OrbitkitError leaves main as an exit code, never a traceback."""

    def test_unsolvable_solver_step_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "solve_phi_psi", _raiser(
            LinearSystemInconsistent("degree 3 step unsolvable")))
        code, out, err = run(capsys, "solve", "--regime", "sqrtp",
                             "--prime", "5", "--degree", "4")
        assert code == 1
        assert out == ""
        assert err == ("error: LinearSystemInconsistent: "
                       "degree 3 step unsolvable\n")

    def test_unsolvable_solver_step_is_a_failed_check(self, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(cli, "solve_phi_psi", _raiser(
            LinearSystemInconsistent("degree 2 step unsolvable")))
        code, rep, _ = run_json(capsys, "verify", "--input", F3,
                                "--checks", "twist")
        assert code == 1
        assert check_named(rep, "twist") == {
            "name": "twist", "status": "FAIL",
            "witness": "LinearSystemInconsistent: degree 2 step unsolvable"}

    def test_failed_ad_certificate_is_a_failed_check(self, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(cli, "twist_map", _raiser(
            AutomorphismCheckFailed("Ad(e^(1, 0, 0)) breaks the bracket")))
        code, rep, _ = run_json(capsys, "verify", "--input", F3,
                                "--checks", "twist")
        assert code == 1
        assert check_named(rep, "twist") == {
            "name": "twist", "status": "FAIL",
            "witness": "AutomorphismCheckFailed: Ad(e^(1, 0, 0)) breaks "
                       "the bracket"}

    def test_domain_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "match_tables", _raiser(
            DomainMismatch("inner product needs a shared domain")))
        code, out, err = run(capsys, "chartable", "--input", F3)
        assert code == 1
        assert out == ""
        assert err == ("error: DomainMismatch: inner product needs a shared "
                       "domain\n")


    def test_disagreeing_ch_routes_exit_1(self, capsys, monkeypatch):
        real = freelie._dynkin_bch

        def skewed(n_max):
            comps = real(n_max)
            comps[2] = comps[2] * 2
            return comps

        monkeypatch.setattr(freelie, "_dynkin_bch", skewed)
        freelie.bch.cache_clear()
        try:
            code, out, err = run(capsys, "bch", "--prime", "3",
                                 "--degree", "3")
        finally:
            freelie.bch.cache_clear()
        assert code == 1
        assert out == ""
        assert err == ("error: PropertyFailed: CH routes disagree at "
                       "degree 2\n")

    def test_solver_identity_guard_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(chsolver, "check_identity",
                            lambda series, pair, n_max: False)
        code, out, err = run(capsys, "solve", "--regime", "sqrtp",
                             "--prime", "5", "--degree", "4")
        assert code == 1
        assert out == ""
        assert err == ("error: PropertyFailed: solved pair fails the "
                       "defining identity\n")


class TestChain:
    def test_heisenberg_q3_levels(self, capsys):
        code, rep, _ = run_json(capsys, "chain", "--input", Q3,
                                "--levels", "3")
        assert code == 0
        assert [lvl["diag"] for lvl in rep["levels"]] == [
            ["1", "1", "1/3"], ["1/3", "1/3", "1/27"],
            ["1/9", "1/9", "1/243"]]
        assert [lvl["index_in_next"] for lvl in rep["levels"]] \
            == [81, 81, None]
        assert len(rep["checks"]) == 15
        assert all(c["status"] == "PASS" for c in rep["checks"])

    def test_bad_level_count(self, capsys):
        code, _, err = run(capsys, "chain", "--input", Q3, "--levels", "0")
        assert code == 2
        assert "InputBoundViolation" in err


class TestRestrict:
    def test_f3_center(self, capsys):
        code, rep, _ = run_json(capsys, "restrict", "--input", F3,
                                "--subring", CENTER)
        assert code == 0
        eq = check_named(rep, "equivalence")
        assert eq["status"] == "PASS"
        assert (eq["orbits_g"], eq["orbits_k"]) == (11, 3)
        assert (eq["pairs"], eq["contained"]) == (33, 11)
        assert eq["alpha"] == 1
        assert eq["finite_shadow"] is True

    def test_wrong_alpha(self, capsys):
        code, _, err = run(capsys, "restrict", "--input", F3,
                           "--subring", CENTER, "--alpha", "2")
        assert code == 2
        assert "RegimeViolation" in err


class TestInputHandling:
    def test_unknown_spec_key_rejected(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"p": 3, "moduli": [1], "foo": 1}))
        code, _, err = run(capsys, "chartable", "--input", str(spec))
        assert code == 2
        assert "unknown keys" in err

    def test_malformed_bracket_key_rejected(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(
            {"p": 3, "moduli": [1, 1, 1], "brackets": {"1,2": {"3": 1}}}))
        code, _, err = run(capsys, "chartable", "--input", str(spec))
        assert code == 2
        assert 'is not "(i,j)"' in err

    def test_non_object_spec_rejected(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("[1, 2, 3]")
        code, _, err = run(capsys, "chartable", "--input", str(spec))
        assert code == 2

    def test_seed_flag_lands_in_report(self, capsys, monkeypatch):
        monkeypatch.delenv("ORBITKIT_SEED", raising=False)
        _, rep, _ = run_json(capsys, "solve", "--regime", "generic",
                             "--prime", "3", "--degree", "3",
                             "--seed", "5")
        assert rep["seed"] == 5

    def test_seed_env_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("ORBITKIT_SEED", "17")
        _, rep, _ = run_json(capsys, "solve", "--regime", "generic",
                             "--prime", "3", "--degree", "3",
                             "--seed", "5")
        assert rep["seed"] == 17

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        assert "orbitkit" in capsys.readouterr().out
