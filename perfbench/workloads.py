"""The benchmark's workloads: seeded job lists and each job's correctness gate.

A job is one orbitkit CLI command.  Its inputs are spec files that the
benchmark writes itself, so the runs do not depend on the repository's
example specs.  The program gets only those files and ``--seed``.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import ringgen

DEGREE = 8          # the CLI's DEGREE_CAP; bch(9..11) lie above it
CHAIN_LEVELS = 4
ODD_PRIMES = (3, 5, 7, 11, 13)


def _heisenberg(p, k, label):
    return {"p": p, "moduli": [k, k, k], "brackets": {"(1,2)": {"3": 1}},
            "label": label}


RINGS = {
    "u4_f5": {"p": 5, "moduli": [1] * 6,
              "brackets": {"(1,2)": {"4": 1}, "(2,3)": {"5": 1},
                           "(1,5)": {"6": 1}, "(3,4)": {"6": 4}},
              "label": "unitriangular-4x4-F5"},
    "filiform4_f5": {"p": 5, "moduli": [1] * 4,
                     "brackets": {"(1,2)": {"3": 1}, "(1,3)": {"4": 1}},
                     "label": "filiform-4-F5"},
    "heisenberg_f3": _heisenberg(3, 1, "heisenberg-F3"),
    "heisenberg_f5": _heisenberg(5, 1, "heisenberg-F5"),
    "heisenberg_f7": _heisenberg(7, 1, "heisenberg-F7"),
    "heisenberg_z9": _heisenberg(3, 2, "heisenberg-Z9"),
    "rank3_z8": {"p": 2, "moduli": [3, 3, 3],
                 "brackets": {"(1,2)": {"3": 4}}, "label": "rank3-Z8"},
}
ALGEBRAS = {
    "heisenberg_q3": {"p": 3, "dimension": 3,
                      "brackets": {"(1,2)": {"3": 1}},
                      "label": "heisenberg-Q3"},
    "heisenberg_q2": {"p": 2, "dimension": 3,
                      "brackets": {"(1,2)": {"3": 1}},
                      "label": "heisenberg-Q2"},
}
SUBRINGS = {
    "centre": {"generators": [[0, 0, 1]], "label": "center"},
    "scaled_3g": {"generators": [[3, 0, 0], [0, 3, 0], [0, 0, 3]],
                  "label": "3g"},
}
# (pairs, contained) of the orbit-containment census, from the acceptance gate
RESTRICTIONS = {("heisenberg_f3", "centre"): (33, 11),
                ("heisenberg_z9", "scaled_3g"): (2835, 153)}
U4_CLASSES = 265


class JobFailed(Exception):
    """A job's output broke its correctness gate."""


def _require(ok, message):
    if not ok:
        raise JobFailed(message)


class Job:
    """One CLI command, its spec files, and the gate its report must pass."""

    def __init__(self, command, args, gate, label):
        self.command = command
        self.args = args
        self.gate = gate
        self.label = label

    def check(self, status, stdout, seed):
        """Raise JobFailed unless the job exited 0 and its report is right."""
        _require(status == 0, f"exit status {status}")
        if self.command == "bch":
            self.gate(stdout.decode("utf-8"))
            return
        try:
            report = json.loads(stdout)
        except ValueError as exc:
            raise JobFailed(f"report is not JSON: {exc}") from None
        _require(report.get("command") == self.command,
                 f"report is for {report.get('command')!r}")
        _require(report.get("seed") == seed, "report carries another seed")
        self.gate(report)


def _statuses(report):
    return {c["name"]: c["status"] for c in report["checks"]}


def _all_pass(report, names):
    got = _statuses(report)
    _require(set(got) == set(names),
             f"checks {sorted(got)} != {sorted(names)}")
    bad = sorted(n for n, s in got.items() if s != "PASS")
    _require(not bad, f"checks not PASS: {bad}")


def _order(spec):
    return spec["p"] ** sum(spec["moduli"])


def _degree_sq_sum(degrees):
    return sum(int(d) ** 2 * k for d, k in degrees.items())


def chartable_gate(spec, method, classes=None):
    order = _order(spec)

    def gate(report):
        _all_pass(report, ["oracle"] if method == "oracle"
                  else ["kirillov", "oracle", "match"])
        oracle = report["oracle"]
        n = oracle["classes"]
        _require(_degree_sq_sum(oracle["degrees"]) == order,
                 "sum of squared oracle degrees != |G|")
        _require(classes is None or n == classes,
                 f"{n} classes, expected {classes}")
        if method == "oracle":
            return
        kirillov = report["kirillov"]
        match = next(c for c in report["checks"] if c["name"] == "match")
        _require(kirillov["orbits"] == n, "orbit count != class count")
        _require(kirillov["sum_degree_sq"] == order, "sum_degree_sq != |G|")
        _require(kirillov["degrees"] == oracle["degrees"],
                 "orbit and oracle degrees differ")
        _require(match["matched"] == n
                 and sorted(match["assignment"]) == list(range(n)),
                 "matching does not cover every row")
        _require(match["max_deviation"] < report["tolerance"],
                 f"max_deviation {match['max_deviation']} >= tolerance")
    return gate


def verify_gate(spec):
    expected = ["p2"] if spec["p"] == 2 else ["idempotents", "expstar",
                                              "twist"]

    def gate(report):
        statuses = _statuses(report)
        ran = {n: s for n, s in statuses.items() if s != "SKIPPED"}
        _require(set(ran) == set(expected),
                 f"checks run {sorted(ran)} != {sorted(expected)}")
        _require(all(s == "PASS" for s in ran.values()),
                 f"checks not PASS: {ran}")
    return gate


def restrict_gate(expected):
    def gate(report):
        _all_pass(report, ["equivalence"])
        eq = report["checks"][0]
        got = (eq["pairs"], eq["contained"])
        _require(got == expected, f"(pairs, contained) = {got} != {expected}")
    return gate


def chain_gate(levels):
    def gate(report):
        got = _statuses(report)
        lattices = {name.split()[0] for name in got}
        _require(len(got) == 5 * levels and lattices == {
            f"k_{j}" for j in range(1, levels + 1)},
            f"{len(got)} chain properties for {levels} levels")
        _all_pass(report, list(got))
    return gate


def solve_gate(degree):
    def gate(report):
        _all_pass(report, ["identity", "output_bounds", "back_substitution"])
        _require(report["certified_to"] >= degree,
                 f"certified only to degree {report['certified_to']}")
    return gate


def bch_gate(degree):
    def gate(text):
        rows = text.rstrip("\n").split("\n")[-degree:]
        for n, row in enumerate(rows, start=1):
            cells = row.split()
            _require(len(cells) == 4 and cells[0] == str(n),
                     f"valuation table row {n} is {row!r}")
            _require(cells[3] == "inf" or Fraction(cells[3]) >= 0,
                     f"degree {n}: valuation below the bound")
    return gate


# -- workloads ------------------------------------------------------------

WHY = {
    "u4_census": "ROADMAP's headline group U4(F5): oracle class matrices, "
                 "eig and the CH kernel; plus orbits, Kirillov characters "
                 "and matching on a class-3 ring",
    "small_rings": "many small groups, so per-call and set-up cost count; "
                   "the only workload for harmonic, the verify suites, "
                   "twist, padic, ratlin, modlin and the degree-8 CH series "
                   "and solver",
}


def _write(spec_dir, name, spec):
    path = os.path.join(spec_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1, sort_keys=True)
    return path


def build(workload, seed, spec_dir):
    """Write the workload's specs to ``spec_dir``; return (jobs, specs).

    ``specs`` maps each spec file name to its content, so that a run can be
    replayed from its record.
    """
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    specs = {}

    def ring(name, spec=None):
        spec = spec or RINGS[name]
        specs[name] = spec
        return spec, _write(spec_dir, name, spec)

    def chartable(name, method="both", classes=None, spec=None):
        spec, path = ring(name, spec)
        return Job("chartable", ["chartable", "--input", path, "--method",
                                 method, "--seed", str(seed)],
                   chartable_gate(spec, method, classes), name)

    def verify(name, spec=None):
        spec, path = ring(name, spec)
        return Job("verify", ["verify", "--input", path, "--seed", str(seed)],
                   verify_gate(spec), name)

    def restrict(name, sub):
        _, path = ring(name)
        specs[sub] = SUBRINGS[sub]
        sub_path = _write(spec_dir, sub, SUBRINGS[sub])
        return Job("restrict", ["restrict", "--input", path, "--subring",
                                sub_path, "--seed", str(seed)],
                   restrict_gate(RESTRICTIONS[(name, sub)]),
                   f"{name}/{sub}")

    def chain(name):
        specs[name] = ALGEBRAS[name]
        path = _write(spec_dir, name, ALGEBRAS[name])
        return Job("chain", ["chain", "--input", path, "--levels",
                             str(CHAIN_LEVELS), "--seed", str(seed)],
                   chain_gate(CHAIN_LEVELS), name)

    if workload == "u4_census":
        jobs = [chartable("u4_f5", "oracle", U4_CLASSES),
                chartable("filiform4_f5")]
    else:
        jobs = []
        for name in ("heisenberg_f3", "heisenberg_f5", "heisenberg_f7",
                     "heisenberg_z9"):
            jobs += [chartable(name), verify(name)]
        jobs += [chartable("rank3_z8", "oracle"), verify("rank3_z8"),
                 restrict("heisenberg_f3", "centre"),
                 restrict("heisenberg_z9", "scaled_3g"),
                 chain("heisenberg_q3"), chain("heisenberg_q2")]
        for k, spec in enumerate(ringgen.class2_rings(seed)):
            name = f"class2_{k}"
            jobs += [chartable(name, spec=spec), verify(name, spec=spec)]
        rng = random.Random(f"ch:{seed}")
        bch_prime = rng.choice(ODD_PRIMES)
        sqrtp = rng.choice(ODD_PRIMES[1:])          # the regime needs p >= 5
        jobs += [Job("bch", ["bch", "--prime", str(bch_prime), "--degree",
                             str(DEGREE)], bch_gate(DEGREE), f"p={bch_prime}"),
                 Job("solve", ["solve", "--regime", "sqrtp", "--prime",
                               str(sqrtp), "--degree", str(DEGREE),
                               "--seed", str(seed)],
                     solve_gate(DEGREE), f"sqrtp:{sqrtp}")]
    return jobs, specs
