"""End-to-end command-line driver: reports, determinism, exit codes."""

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orbitkit import chsolver, cli, errors, freelie, oracle, orbitmethod
from orbitkit.errors import (AutomorphismCheckFailed, DomainMismatch,
                             LinearSystemInconsistent)
from orbitkit.harmonic import ADDITIVE

from conftest import closure_failure, forged_closure_lists

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


def spy_certify(monkeypatch):
    """Record the group of every conjugation certificate built."""
    groups = []
    real = oracle._certify

    def spy(group):
        groups.append(group)
        return real(group)
    monkeypatch.setattr(oracle, "_certify", spy)
    return groups


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

    @pytest.mark.parametrize("argv", [
        ("--degree", "1", "--prime", "0"),
        ("--degree", "2", "--prime", "-3"),
        ("--degree", "2", "--regime", "generic", "--prime", "9"),
        ("--degree", "2", "--regime", "sqrtp", "--prime", "25"),
    ], ids=["zero", "negative", "generic-composite", "sqrtp-composite"])
    def test_prime_that_is_not_prime_is_refused(self, capsys, argv):
        code, out, err = run(capsys, "bch", *argv)
        assert code == 2 and not out
        prime = argv[-1]
        assert err == f"error: ValueError: --prime {prime} is not prime\n"


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

    def test_identity_is_checked_once(self, capsys, monkeypatch):
        # the solver checks the identity; the report does not check again
        calls = []
        real = chsolver.check_identity

        def counting(series, pair, n_max):
            calls.append(n_max)
            return real(series, pair, n_max)
        monkeypatch.setattr(chsolver, "check_identity", counting)
        monkeypatch.setattr(cli, "check_identity", counting, raising=False)
        code, rep, _ = run_json(capsys, "solve", "--regime", "sqrtp",
                                "--prime", "5", "--degree", "4")
        assert code == 0
        assert calls == [4]
        assert check_named(rep, "identity") == {"name": "identity",
                                                "status": "PASS"}

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

    # degree 0 once printed "certified_to": 0 with the identity PASS, and
    # degree 9 ran above the cap bch enforces
    @pytest.mark.parametrize("degree", ["0", "-3", "9"])
    def test_degree_out_of_range(self, capsys, degree):
        code, out, err = run(capsys, "solve", "--regime", "generic",
                             "--prime", "5", "--degree", degree)
        assert code == 2 and not out
        assert err == (f"error: InputBoundViolation: --degree must be "
                       f"between 1 and {freelie.DEGREE_CAP}\n")


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

    def test_both_methods_certify_the_group_once(self, capsys, monkeypatch):
        groups = spy_certify(monkeypatch)
        code, _, _ = run_json(capsys, "chartable", "--input", F3,
                              "--method", "both")
        assert code == 0
        assert len(groups) == 1

    def test_broken_certificate_exits_1(self, capsys, monkeypatch):
        # left multiplication forged to swap the products of grid indices 5
        # and 7, so conjugation is not linear there
        real = oracle._left_perm

        def forged(group, g):
            perm = real(group, g)
            perm[[5, 7]] = perm[[7, 5]]
            return perm
        monkeypatch.setattr(oracle, "_left_perm", forged)
        code, out, err = run(capsys, "chartable", "--input", F3,
                             "--method", "oracle")
        assert code == 1
        assert out == ""
        assert err.startswith("error: AutomorphismCheckFailed: conjugation "
                              "by e^(1, 0, 0) is not linear: grid index 5 ")

    def test_both_refuses_above_the_class_cap_before_orbits(self, capsys,
                                                            monkeypatch):
        # H(F3) has 11 classes: with the cap at 10 the table refuses the
        # ring before any orbit character is computed
        calls = []
        real = cli.kirillov_character

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(cli, "kirillov_character", counted)
        monkeypatch.setattr(oracle, "CLASS_CAP", 10)
        assert run(capsys, "chartable", "--input", F3, "--method",
                   "both") == (2, "", "error: ValueError: 11 classes exceed "
                                      "the cap 10\n")
        assert calls == []
        # below p = 3 the regime is refused first, whatever the cap
        code, _, err = run(capsys, "chartable", "--input", Z8, "--method",
                           "both")
        assert code == 2
        assert err.startswith("error: RegimeViolation: ")

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

    def test_tolerance_at_the_row_gap_exits_2(self, capsys):
        # above 0.7 a candidate could lie near two table rows
        code, out, err = run(capsys, "chartable", "--input", F3,
                             "--tolerance", "0.7")
        assert code == 2
        assert out == ""
        assert err == ("error: ValueError: match tolerance 0.7 is not "
                       "below 0.7\n")

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

    def test_p2_suite_at_uniform_depth_three(self, capsys, tmp_path):
        # [g, g] in 8g turns on the one-factor claim
        spec = tmp_path / "depth3.json"
        spec.write_text(json.dumps({"p": 2, "moduli": [2, 2, 4],
                                    "brackets": {"(1,2)": {"3": 8}}}))
        code, rep, _ = run_json(capsys, "verify", "--input", str(spec))
        assert code == 0
        p2 = check_named(rep, "p2")
        assert (p2["cells"], p2["irreducibles"]) == (32, 160)
        assert p2["convolution"] == {"part_b": "exact", "part_a": "exact",
                                     "expected_failure": [16, 48, 80]}

    def test_subset_of_checks(self, capsys):
        code, rep, _ = run_json(capsys, "verify", "--input", F3,
                                "--checks", "expstar,twist")
        assert code == 0
        assert [c["name"] for c in rep["checks"]] == ["expstar", "twist"]

    def test_explicit_inapplicable_check_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--input", F3, "--checks", "p2")
        assert code == 2
        assert "RegimeViolation" in err

    def test_idempotent_suite_shares_the_group(self, capsys, monkeypatch):
        # the orbits and the characters take the command's group and its
        # certificate; the seed reaches neither, since both are exact.  The
        # 11 orbits of H(F3) hold 297 values, one block of characters
        calls = []

        def spy(name):
            real = getattr(orbitmethod, name)

            def wrapper(group, *args, **kwargs):
                calls.append((name, group, "seed" in kwargs))
                return real(group, *args, **kwargs)
            monkeypatch.setattr(orbitmethod, name, wrapper)
        spy("coadjoint_orbits")
        spy("kirillov_character")
        spy("_block_characters")
        code, _, _ = run_json(capsys, "verify", "--input", F3, "--checks",
                              "idempotents", "--seed", "3")
        assert code == 0
        # the suite reads the block helper, not kirillov_character
        assert [call[0] for call in calls] == ["coadjoint_orbits",
                                               "_block_characters"]
        group = calls[0][1]
        assert group is not None
        assert all(call[1] is group for call in calls)
        assert not any(call[2] for call in calls)

    def test_p2_suite_reuses_the_group(self, capsys, monkeypatch):
        # the partition reads the group off the oracle's table
        groups = []

        def spy(name, group_of):
            real = getattr(cli, name)

            def wrapper(arg, **kwargs):
                groups.append(group_of(arg))
                return real(arg, **kwargs)
            monkeypatch.setattr(cli, name, wrapper)
        spy("p2_orbit_partition", lambda table: table.partition.group)
        spy("p2_convolution_check", lambda group: group)
        code, _, _ = run_json(capsys, "verify", "--input", Z8)
        assert code == 0
        assert len(groups) == 2 and groups[0] is groups[1] is not None

    @pytest.mark.parametrize("spec, checks", [
        (F3, ["idempotents", "expstar", "twist"]), (Z8, ["p2"])],
        ids=["idempotents+expstar", "p2"])
    def test_suites_share_one_partition(self, capsys, monkeypatch, spec,
                                        checks):
        groups = spy_certify(monkeypatch)
        code, rep, _ = run_json(capsys, "verify", "--input", spec,
                                "--seed", "4")
        assert code == 0
        assert [c["name"] for c in rep["checks"]
                if c["status"] == "PASS"] == checks
        assert len(groups) == 1

    @pytest.mark.xfail(strict=True, reason=(
        "the p3-uniform pair is solved to degree max(2, class) = 3, but CH "
        "runs to its truncation 6; at degree 6 the evaluation is not "
        "integral at the working precision"))
    def test_twist_on_a_depth_one_uniform_ring(self, capsys, tmp_path):
        # uniform_quotient(3, 2, {(0, 1): {1: 3}}, 3): order 729, class 3,
        # uniform depth 1; integer constants are their own lifts.  The
        # idempotent and exp* checks pass on it; twist fails at
        # x = (0, 1), y = (1, 0)
        spec = tmp_path / "uniform_z27.json"
        spec.write_text(json.dumps({"p": 3, "moduli": [3, 3],
                                    "brackets": {"(1,2)": {"2": 3}}}))
        code, rep, _ = run_json(capsys, "verify", "--input", str(spec),
                                "--checks", "twist")
        assert check_named(rep, "twist")["status"] == "PASS"
        assert code == 0

    def test_unknown_check_name(self, capsys):
        code, _, err = run(capsys, "verify", "--input", F3,
                           "--checks", "bogus")
        assert code == 2
        assert "unknown checks" in err


@pytest.mark.parametrize("argv, certificates", [
    (["chartable", "--input", F5, "--method", "both"], 1),
    (["verify", "--input", str(SPEC_DIR / "heisenberg_z9.json")], 1),
    (["restrict", "--input", F3, "--subring", CENTER], 2),
    (["verify", "--input", Z8], 1)],
    ids=["chartable-both-f5", "verify-z9", "restrict-f3-center", "verify-z8"])
def test_one_certificate_per_group(capsys, monkeypatch, argv, certificates):
    # every orbit-side function takes the command's group, so each group
    # (G, and K for restrict) is certified once
    groups = spy_certify(monkeypatch)
    code, _, _ = run_json(capsys, *argv)
    assert code == 0
    assert len(groups) == certificates
    assert len({id(group) for group in groups}) == certificates


def _raiser(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


class TestForgedOrbits:
    """One orbit of H(F3) that is not closed under the coadjoint action
    (conftest ``forged_closure_lists``) stops the orbit side: chartable
    exits 1, and verify's idempotent check fails, naming the orbit and a
    member that leaves it."""

    @staticmethod
    def forge(monkeypatch, module, name, h3_group):
        monkeypatch.setattr(module, "coadjoint_orbits", lambda group: (
            forged_closure_lists(group)[name][0]))
        orbits, position = forged_closure_lists(h3_group)[name]
        return closure_failure(h3_group, orbits[position], position)

    @pytest.mark.parametrize("name", ["square", "moved", "overlapping"])
    def test_chartable_both_exits_1(self, capsys, monkeypatch, name,
                                    h3_group):
        want = self.forge(monkeypatch, cli, name, h3_group)
        assert run(capsys, "chartable", "--input", F3, "--method",
                   "both") == (1, "", f"error: PropertyFailed: {want}\n")

    @pytest.mark.parametrize("name", ["square", "moved", "overlapping"])
    def test_verify_idempotents_fails(self, capsys, monkeypatch, name,
                                      h3_group):
        want = self.forge(monkeypatch, orbitmethod, name, h3_group)
        code, rep, _ = run_json(capsys, "verify", "--input", F3, "--checks",
                                "idempotents")
        assert code == 1
        assert check_named(rep, "idempotents") == {
            "name": "idempotents", "status": "FAIL",
            "witness": f"PropertyFailed: {want}"}


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

    def test_exp_star_mismatch_is_a_failed_check(self, capsys, monkeypatch):
        # additive keys forged to lose the smallest key of class 2, the one
        # count N_2[0, z_2] = 1 (z_2 is its own class): the witness is
        # decoded from that key
        real_keys = orbitmethod.class_keys

        def keys(part, classes, law, rows=None):
            for block, found in real_keys(part, classes, law, rows):
                if law == ADDITIVE and 2 in block:
                    first = block.index(2) * len(part) ** 2
                    found = np.delete(found, np.searchsorted(found, first))
                yield block, found
        monkeypatch.setattr(orbitmethod, "class_keys", keys)
        code, rep, _ = run_json(capsys, "verify", "--input", F3,
                                "--checks", "expstar")
        assert code == 1
        assert rep["checks"] == [{
            "name": "expstar", "status": "FAIL",
            "witness": "PropertyFailed: witness: (2, 0, 2)"}]

    def test_shallow_p2_ring_is_refused_before_any_table(self, capsys,
                                                         monkeypatch,
                                                         tmp_path):
        # (Z/2)^2 has uniform depth 1: the regime check refuses it before
        # the p = 2 suite builds a character table
        spec = tmp_path / "z2sq.json"
        spec.write_text(json.dumps({"p": 2, "moduli": [1, 1]}))
        monkeypatch.setattr(cli, "character_table", _raiser(
            AssertionError("the character table was built")))
        code, out, err = run(capsys, "verify", "--input", str(spec))
        assert code == 2
        assert out == ""
        assert err == ("error: RegimeViolation: uniform depth 1 < 2: "
                       "[g,g] must lie in 4g\n")

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

    def test_skewed_associative_ch_route_exits_1(self, capsys,
                                                 monkeypatch):
        real = freelie._assoc_bch

        def skewed(n_max):
            comps = real(n_max)
            comps[2] = comps[2] * 2
            return comps

        monkeypatch.setattr(freelie, "_assoc_bch", skewed)
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

    def test_each_error_class_has_one_exit_code(self, capsys, monkeypatch):
        # each error derives from exactly one of the two bases, or is
        # DomainMismatch: a CheckFailure is a FAIL entry inside a check and
        # exit 1 outside one, an InputRejected exits 2, DomainMismatch 1
        bases = (errors.CheckFailure, errors.InputRejected)
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and c.__module__ == errors.__name__
                   and c not in bases + (errors.OrbitkitError,)]
        assert len(classes) == 20
        for cls in classes:
            under = [b for b in bases if issubclass(cls, b)]
            assert len(under) == 1 or (
                cls is errors.DomainMismatch and not under), cls
            exit_code = 2 if under == [errors.InputRejected] else 1
            message = f"error: {cls.__name__}: boom\n"
            monkeypatch.setattr(cli, "solve_phi_psi", _raiser(cls("boom")))
            assert run(capsys, "solve", "--regime", "generic", "--prime",
                       "3", "--degree", "3") == (exit_code, "", message)
            monkeypatch.undo()
            monkeypatch.setattr(cli, "twist_map", _raiser(cls("boom")))
            code, out, err = run(capsys, "verify", "--input", F3,
                                 "--checks", "twist")
            monkeypatch.undo()
            if under == [errors.CheckFailure]:
                assert (code, err) == (1, "")
                assert check_named(json.loads(out), "twist")["witness"] \
                    == f"{cls.__name__}: boom"
            else:
                assert (code, out, err) == (exit_code, "", message)

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

    # each of these once ended in a traceback (exit 1) or was silently
    # taken (a float modulus truncated, true read as 1)
    @pytest.mark.parametrize("command, spec, message", [
        ("chartable", {"p": "3", "moduli": [1, 1, 1]},
         "p must be an integer, got '3'"),
        ("chartable", {"p": 3, "moduli": 3}, "moduli must be a list, got 3"),
        ("chartable", {"p": 3, "moduli": [1, 1, 1], "brackets": [1]},
         "brackets must be an object, got [1]"),
        ("chartable", {"p": 3, "moduli": [1, 1, 1],
                       "brackets": {"(1,2)": 5}},
         'bracket "(1,2)" must be an object, got 5'),
        ("chartable", {"p": 3, "moduli": [1.5, 1, 1]},
         "moduli must be integers, got 1.5"),
        ("chartable", {"p": 3, "moduli": [True, 1, 1]},
         "moduli must be integers, got True"),
        ("chartable", {"p": 3, "moduli": [1, 1, 1],
                       "brackets": {"(1,2)": {"3": True}}},
         "ring constants must be integers, got True"),
        ("chain", {"p": 3, "dimension": "3"},
         "dimension must be an integer, got '3'"),
        ("chain", {"p": "3", "dimension": 3},
         "p must be an integer, got '3'"),
        ("chain", {"p": 3, "dimension": 3,
                   "brackets": {"(1,2)": {"3": True}}},
         "rational constants must be int or 'a/b', got True"),
        ("restrict", {"generators": [1, 2]},
         "each generator must be a list, got 1"),
        ("restrict", {"generators": [[0, 0, True]]},
         "generator entries must be integers, got True"),
        ("verify", None, "checks ['expstar', 'expstar'] name a check twice"),
    ], ids=["p-string", "moduli-int", "brackets-list", "bracket-row-int",
            "modulus-float", "modulus-bool", "constant-bool",
            "dimension-string", "qp-p-string", "rational-bool",
            "generator-int", "generator-entry-bool", "checks-repeated"])
    def test_malformed_input_is_refused(self, capsys, tmp_path, command,
                                        spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = {"chartable": ["chartable", "--method", "oracle",
                              "--input", str(path)],
                "chain": ["chain", "--levels", "2", "--input", str(path)],
                "restrict": ["restrict", "--input", F3,
                             "--subring", str(path)],
                "verify": ["verify", "--input", F3,
                           "--checks", "expstar,expstar"]}[command]
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err == f"error: ValueError: {message}\n"

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

    # nan once failed verify's idempotent suite with a bogus witness, and
    # restrict's equivalence, and both reports printed "tolerance": NaN
    @pytest.mark.parametrize("argv", [
        ["chartable", "--input", F3, "--tolerance", "nan"],
        ["verify", "--input", F3, "--tolerance", "nan"],
        ["verify", "--input", Z8, "--tolerance", "inf"],
        ["restrict", "--input", F3, "--subring", CENTER, "--tolerance=-inf"],
    ], ids=["chartable-nan", "verify-nan", "verify-p2-inf",
            "restrict-minus-inf"])
    def test_non_finite_tolerance_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        out, err = capsys.readouterr()
        value = argv[-1].removeprefix("--tolerance=")
        assert out == ""
        assert err.endswith(f"error: argument --tolerance: {value!r} is "
                            f"not a finite number\n")


# sha256 of whole reports at seed 0, recorded with numpy 2.4.6 on Python
# 3.11 at the default BLAS thread count of a 2-core machine: reports must
# stay byte-identical across refactors.  The float fields (max_deviation,
# the idempotent deviations) carry round-off, which can move with the BLAS
# thread count as well as the numpy or BLAS build, so another setting may
# need them recorded afresh.
REPORT_DIGESTS = {
    ("chartable", "heisenberg_f3"):
        "d0af7b7ebeda0c3d41b44ac30fb55edf977b0833f8e9e2b700c1403ed9f1bc50",
    ("chartable", "heisenberg_z9"):
        "f97ac4e0343aab317e1ae8f1c7c4ec0a75dc7131211be7350890b0a9ec7c0b01",
    ("verify", "heisenberg_f5"):
        "6dcdbbcd934deb8efdcfa32ec280a5f37bfc2112f682b58553b3890f85229e3b",
    ("verify", "heisenberg_z9"):
        "a6e3f8f2006114cd574e9fc44dc833cedbda4599cf991b2609b09d4d16819dfa",
    ("verify", "rank3_z8_p2"):
        "a97012abcd0abe0db88b246dde0ae27228e27c03bbc664243435de7ec77089c4",
    # "spec:checks" runs only those checks.  U4(F5)'s exact checks report
    # no float field, and read the same at one and two BLAS threads
    ("verify", "u4_f5:expstar,twist"):
        "71ba29df329797b2589594e9ff35e317f23c5b807f3f5914a7427294586f21c6",
    ("restrict", "heisenberg_f3"):
        "ec60b247497d291bf0fe286b6849bfd26a4833c233630e2c621086d786522ad8",
    ("restrict", "heisenberg_z9"):
        "c963850038d25cfbcd5196b55bdf8f1f7d6f478cd3352d74ae21b322be23bee5",
    ("restrict", "rank3_z8_p2"):
        "88810a9a18d615f8eb1a96047079af3141dd7b5b8427c332f96b6a6ace6024ad",
    # the series commands at degree 8: bch's printout, keyed by its --prime
    # or its regime, and solve's report, keyed by its regime; a regime that
    # takes a prime is written "regime:p", and a bare "generic" or "sqrtp"
    # runs at p = 5
    ("bch", "2"):
        "b206c5af93c7737a2dd34d6d027572949cbc9afa4b50bb006e7369bffaf3299a",
    ("bch", "3"):
        "8dc005fa096b9f6a72f5f31f7cdefc2ee72d8d976a5cb58d73cba42f4eac5e4c",
    ("bch", "5"):
        "2484a1ab508de27681a268beb783e4fc360b2de6d9c671d4e28d8f642bbfad4e",
    ("bch", "7"):
        "f0487d0ee25d6599e3d0d01a8c9925bfff6138fad8ddd35526362d0f81a9a025",
    ("bch", "p3-uniform"):
        "9cc164e9ccdc27114a9eff52f60aea6a48f8f6607865e5255657092d344c3b25",
    ("bch", "sqrtp:5"):
        "7e6c6a6a03e3e7361ed8147ac566c8164c2e8f759584e84df4aa519ccaf29f57",
    ("bch", "sqrtp:7"):
        "8c52cbecb3690b3d7587a33a6a160c0fcd8c4cab1245f937cca9da1ecafe5e63",
    ("bch", "p2-half"):
        "b9c26d9fae04f46c30efe6b858ede9df56dbe16acf09e37a97ba8848f9d24c52",
    ("bch", "p2-quarter"):
        "b9c26d9fae04f46c30efe6b858ede9df56dbe16acf09e37a97ba8848f9d24c52",
    ("bch", "generic:5"):
        "2ccd67703c4ead45738f0baeb5c4c82567fb25b1323def4090bd8fdb5f2a7c41",
    ("solve", "generic"):
        "d775602dacb3007db9acd04fcc87f69ce6b54737e8ac3c0f02edea176ca5ece9",
    ("solve", "p3-uniform"):
        "733aa7fbc5bbeb41c5c61edd986b6b462c96cfe8b9aba5e7c53a04bf9cea666b",
    ("solve", "sqrtp"):
        "10f36fd06e4c47a7684cd28fb1012bb8ce15804962f2e78079dcf8c77c65e225",
    ("solve", "sqrtp:7"):
        "be40836cac9efe06a531f21350913880d049390778fd9a82c7dad8dc24ffafff",
    ("solve", "p2-half"):
        "4ce935208597256a485b2601288eb18c8ba17dc3ac9e6202117a8b32006d9964",
    ("solve", "p2-quarter"):
        "7adfc82b696118e8ea36e1bfcdd49a8fd849c6c6ef18bfe5f0ecd2036346d7d1",
}


def subring_spec(spec, tmp_path):
    """The subring of the restrict report on ``spec``: 3g on H(Z/9), the
    centre on the others (the p = 2 branch on the ring over Z/8)."""
    if spec != "heisenberg_z9":
        return CENTER
    path = tmp_path / "3g.json"
    path.write_text(json.dumps({"generators": [[3, 0, 0], [0, 3, 0],
                                               [0, 0, 3]], "label": "3g"}))
    return str(path)


def report_argv(command, case, out, tmp_path):
    """The arguments of the report REPORT_DIGESTS pins for (command, case):
    written to out, but for bch, which only prints."""
    if command == "bch" and case.isdigit():
        return ["bch", "--degree", "8", "--prime", case]
    regime, _, prime = case.partition(":")
    if not prime and regime in ("generic", "sqrtp"):
        prime = "5"
    series = ["--degree", "8", "--regime", regime,
              *(["--prime", prime] if prime else [])]
    if command == "bch":
        return ["bch", *series]
    report = ["--seed", "0", "--output", str(out)]
    if command == "solve":
        return ["solve", *series, *report]
    spec, _, checks = case.partition(":")
    argv = [command, "--input", str(SPEC_DIR / f"{spec}.json"), *report]
    if checks:
        argv += ["--checks", checks]
    if command == "chartable":
        argv += ["--method", "both"]
    elif command == "restrict":
        argv += ["--subring", subring_spec(case, tmp_path)]
    return argv


@pytest.mark.parametrize("command, case", sorted(REPORT_DIGESTS),
                         ids=[f"{c}-{s}" for c, s in sorted(REPORT_DIGESTS)])
def test_reports_are_byte_identical(command, case, tmp_path, capsys):
    out = tmp_path / "report.json"
    code, printed, _ = run(capsys, *report_argv(command, case, out, tmp_path))
    assert code == 0
    report = printed.encode() if command == "bch" else out.read_bytes()
    assert hashlib.sha256(report).hexdigest() == \
        REPORT_DIGESTS[command, case], \
        "report differs from the one recorded with numpy 2.4.6"


def test_chartable_imports_neither_numpy_random_nor_ma(tmp_path):
    # importing numpy.random costs about 14 ms and numpy.ma about 28 ms, and
    # no one-shot job needs either: the weights come from random.Random.
    # np.unique without return_inverse, np.unique(..., axis=0) and
    # np.setdiff1d import numpy.ma (numpy 2.4), so a command that calls one
    # pays it.  chartable, verify at p >= 3 and at p = 2, and restrict run
    # in one child, each with its own report
    report = str(tmp_path / "report.json")
    commands = [
        ["chartable", "--input", F3, "--method", "both"],
        ["verify", "--input", F3],
        ["verify", "--input", Z8],
        ["restrict", "--input", F3, "--subring", CENTER]]
    script = (
        "import sys\n"
        "from orbitkit import cli\n"
        f"codes = [cli.main(argv + ['--output', {report!r}]) "
        f"for argv in {commands!r}]\n"
        "print(codes, [m for m in ('numpy.random', 'numpy.ma') "
        "if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout == "[0, 0, 0, 0] []\n"


def _child_env():
    """This process's environment, with the tested sources on the path, no
    seed override, and stdout block-buffered as a pipe is by default, so
    that an exit which skips the final flush loses output."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for name in ("ORBITKIT_SEED", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    return env


def _exit_path(name, tmp_path):
    """The expected exit code and the arguments of one exit path."""
    if name == "malformed":
        spec = tmp_path / "bad.json"
        spec.write_text("[1, 2, 3]")
        return 2, ["chartable", "--input", str(spec)]
    both = ["chartable", "--input", F3, "--method", "both"]
    # with no tolerance at all the match check FAILs on float round-off
    return (1, both + ["--tolerance", "0"]) if name == "fail" else (0, both)


class TestExitPaths:
    """main ends with gc.freeze(); no exit path may lose output to it."""

    @pytest.mark.parametrize("name", ("pass", "fail", "malformed"))
    def test_subprocess_matches_in_process(self, name, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.delenv("ORBITKIT_SEED", raising=False)
        expected, argv = _exit_path(name, tmp_path)
        done = subprocess.run([sys.executable, "-m", "orbitkit.cli", *argv],
                              env=_child_env(), capture_output=True,
                              text=True, timeout=120)
        code, out, err = run(capsys, *argv)
        assert code == expected
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)

    def test_output_file_is_complete(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ORBITKIT_SEED", raising=False)
        _, argv = _exit_path("pass", tmp_path)
        child, here = tmp_path / "child.json", tmp_path / "here.json"
        done = subprocess.run(
            [sys.executable, "-m", "orbitkit.cli", *argv, "--output",
             str(child)], env=_child_env(), capture_output=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert cli.main(argv + ["--output", str(here)]) == 0
        assert child.read_bytes() == here.read_bytes()
        assert json.loads(child.read_text())["command"] == "chartable"

    @pytest.mark.parametrize("name", ("pass", "malformed"))
    def test_main_leaves_the_collector_enabled_and_frozen(
            self, name, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("ORBITKIT_SEED", raising=False)
        expected, argv = _exit_path(name, tmp_path)
        gc.unfreeze()
        assert gc.get_freeze_count() == 0
        first = run(capsys, *argv)
        assert first[0] == expected
        assert gc.isenabled() and gc.get_freeze_count() > 0
        assert run(capsys, *argv) == first
