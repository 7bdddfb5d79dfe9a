"""Command-line driver: series printers and machine-readable reports.

Input files are JSON; bracket keys are 1-indexed "(i,j)" strings matching
the usual x_1..x_N notation, and rational constants may be written "a/b".
Reports are JSON with sorted keys so that identical seeds and inputs give
byte-identical output; timings are added only on request because they
would break that guarantee.  Exit codes: 0 all checks pass, 1 a
verification check failed (an errors.CheckFailure, such as
LinearSystemInconsistent or AutomorphismCheckFailed) or another orbitkit
error, such as DomainMismatch, ended the command ("error: Type: msg" on
stderr), 2 invalid input or regime (an errors.InputRejected, including a
ring whose arithmetic could overflow int64).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .chsolver import ValuationRegime, solve_phi_psi, substituted_series
from .errors import (AssertionFailed, CheckFailure, InputBoundViolation,
                     InputRejected, OrbitkitError, OutputBoundViolation,
                     PropertyFailed, RegimeViolation)
from .freelie import DEGREE_CAP, INFINITY, bch, is_prime, render_basis
from .liering import LazardGroup, make_ring, twist_map
from .oracle import character_table, match_tables
from .orbitmethod import (coadjoint_orbits, kirillov_character,
                          p2_convolution_check, p2_orbit_partition,
                          verify_exp_star, verify_idempotents)
from .padic import QpLieAlgebra, restriction_harness, uniform_chain

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_TOLERANCE = 1e-9

# the exp* check's ``pairs_checked`` on a pass: the count of the seeded pairs
# it once convolved, kept so that its reports do not change
EXP_STAR_PAIRS = 20

_KEY_RE = re.compile(r"^\((\d+),\s*(\d+)\)$")


# -- input schemas --------------------------------------------------------------

def _load_object(path):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top level must be an object")
    return obj


def _reject_unknown(obj, allowed, what):
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValueError(f"{what}: unknown keys {unknown}")


def _parse_brackets(raw, rank, value_parser):
    constants = {}
    for key, row in raw.items():
        m = _KEY_RE.match(key)
        if not m:
            raise ValueError(f'bracket key "{key}" is not "(i,j)"')
        i, j = int(m.group(1)) - 1, int(m.group(2)) - 1
        if not 0 <= i < j < rank:
            raise ValueError(
                f'bracket key "{key}" needs 1 <= i < j <= {rank}')
        entries = {}
        for target, value in row.items():
            k = int(target) - 1
            if not 0 <= k < rank:
                raise ValueError(
                    f'bracket "{key}": target {target} out of range')
            entries[k] = value_parser(value)
        constants[(i, j)] = entries
    return constants


def _parse_rational(value) -> Fraction:
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"rational constants must be int or 'a/b', got {value!r}")


def _parse_integer(value) -> int:
    if not isinstance(value, int):
        raise ValueError(f"ring constants must be integers, got {value!r}")
    return value


def load_ring_spec(path):
    obj = _load_object(path)
    _reject_unknown(obj, {"p", "moduli", "brackets", "label"}, path)
    p = obj["p"]
    moduli = tuple(obj["moduli"])
    constants = _parse_brackets(obj.get("brackets", {}), len(moduli),
                                _parse_integer)
    return make_ring(p, moduli, constants, label=obj.get("label"))


def load_qp_spec(path) -> QpLieAlgebra:
    obj = _load_object(path)
    _reject_unknown(obj, {"p", "dimension", "brackets", "label"}, path)
    n = obj["dimension"]
    constants = _parse_brackets(obj.get("brackets", {}), n, _parse_rational)
    return QpLieAlgebra(obj["p"], n, constants, label=obj.get("label"))


def load_subring_spec(path):
    obj = _load_object(path)
    _reject_unknown(obj, {"generators", "label"}, path)
    gens = [tuple(int(x) for x in g) for g in obj["generators"]]
    return gens, obj.get("label")


def _require_prime(p) -> None:
    if not is_prime(p):
        raise ValueError(f"--prime {p} is not prime")


def _regime(name: str, p) -> ValuationRegime:
    if p is not None:
        _require_prime(p)
    if name == "generic":
        if p is None:
            raise ValueError("--regime generic needs --prime")
        return ValuationRegime.generic(p)
    if name == "sqrtp":
        if p is None:
            raise ValueError("--regime sqrtp needs --prime")
        return ValuationRegime.sqrtp(p)
    fixed = {"p3-uniform": (3, ValuationRegime.p3_uniform),
             "p2-half": (2, ValuationRegime.p2_half),
             "p2-quarter": (2, ValuationRegime.p2_quarter)}
    if name not in fixed:
        raise ValueError(f"unknown regime {name!r}")
    want, factory = fixed[name]
    if p is not None and p != want:
        raise ValueError(f"regime {name} fixes p = {want}, got --prime {p}")
    return factory()


# -- report plumbing -------------------------------------------------------------

def _seed(args) -> int:
    env = os.environ.get("ORBITKIT_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _fmt_val(v) -> str:
    return "inf" if v == INFINITY else str(v)


def _emit(report, args, start) -> None:
    """Write the report; with --timings it first gets the wall time since
    ``start``."""
    if args.timings:
        report["timings"] = {"total_s": round(time.perf_counter() - start, 3)}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _exit_code(checks) -> int:
    return EXIT_FAIL if any(c["status"] == "FAIL" for c in checks) else EXIT_OK


def _run_check(checks, name, thunk) -> None:
    """Run one verification; a CheckFailure becomes a FAIL entry."""
    try:
        data = thunk()
    except CheckFailure as exc:
        checks.append({"name": name, "status": "FAIL",
                       "witness": f"{type(exc).__name__}: {exc}"})
        return
    entry = {"name": name, "status": "PASS"}
    if isinstance(data, dict):
        entry.update(data)
    checks.append(entry)


def _degree_counts(degrees) -> dict:
    out = {}
    for d in degrees:
        out[str(int(d))] = out.get(str(int(d)), 0) + 1
    return out


# -- commands --------------------------------------------------------------------

def cmd_bch(args) -> int:
    if args.degree < 1 or args.degree > DEGREE_CAP:
        raise InputBoundViolation(
            f"--degree must be between 1 and {DEGREE_CAP}")
    p = args.prime
    if args.regime:
        regime = _regime(args.regime, p)
        series = substituted_series(regime, args.degree)
        name = "H"
    else:
        if p is None:
            raise ValueError("bch needs --prime (or a --regime fixing it)")
        _require_prime(p)
        # raw CH is the unscaled series held to the certificate's floor
        regime = ValuationRegime("CH", p, lambda n: -Fraction(n - 1, p - 1),
                                 None)
        series = bch(args.degree)
        name = "CH"
    lines = []
    rows = [("degree", f"v_{regime.p}", "bound", "margin")]
    for n in range(1, args.degree + 1):
        poly = series.component(n)
        lines.append(f"{name}_{n} = {_rescaled_text(poly, regime, n - 1)}")
        v = regime.valuation(poly, n - 1)
        b = regime.input_bound(n)
        rows.append((str(n), _fmt_val(v), str(b),
                     _fmt_val(v - b if v != INFINITY else INFINITY)))
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    lines.append("")
    lines.extend("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                 for row in rows)
    print("\n".join(lines))
    return EXIT_OK


def _rescaled_text(poly, regime, power):
    """s^power poly as text.  s is rational but for s = sqrt(p), whose odd
    powers leave one factor sqrt(p) in every coefficient, written out here."""
    square = regime.scale_square
    half, odd = divmod(power, 2)
    poly = poly * square ** half
    if square != regime.p or not odd:
        return str(poly * math.isqrt(square) ** odd)
    if not poly:
        return "0"
    unit = f"sqrt({square})"
    return " + ".join(
        f"({unit if c == 1 else f'-{unit}' if c == -1 else f'{c}*{unit}'})"
        f"*{render_basis(d, i)}" for (d, i), c in sorted(poly.terms.items()))


def _bound_data(pair, regime, degree):
    rows = {}
    for n in range(1, degree + 1):
        v = min(regime.valuation(s.component(n), n)
                for s in (pair.phi, pair.psi))
        b = regime.output_bound(n)
        if v < b:
            raise OutputBoundViolation(
                f"degree {n}: valuation {_fmt_val(v)} below bound {b}")
        rows[str(n)] = {"valuation": _fmt_val(v), "bound": str(b)}
    return {"by_degree": rows}


def cmd_solve(args) -> int:
    regime = _regime(args.regime, args.prime)
    series = substituted_series(regime, args.degree)
    checks = []
    report = {"command": "solve", "tool_version": __version__,
              "seed": _seed(args), "inputs": {"regime": regime.tag,
                                              "degree": args.degree},
              "checks": checks}
    start = time.perf_counter()
    pair = solve_phi_psi(series, regime, args.degree)
    report["certified_to"] = pair.certified_to
    # solve_phi_psi has just checked the identity and raises PropertyFailed,
    # which exits 1, on a pair that fails it
    checks.append({"name": "identity", "status": "PASS"})
    _run_check(checks, "output_bounds",
               lambda: _bound_data(pair, regime, args.degree))
    # the pair is rational, so it solves CH in the unscaled variables as it is
    checks.append({"name": "back_substitution", "status": "PASS",
                   "rescaled": regime.scale_square != 1})
    _emit(report, args, start)
    return _exit_code(checks)


def cmd_chartable(args) -> int:
    ring = load_ring_spec(args.input)
    seed = _seed(args)
    checks = []
    report = {"command": "chartable", "tool_version": __version__,
              "seed": seed, "inputs": {"ring": ring.describe(),
                                       "method": args.method},
              "tolerance": args.tolerance, "checks": checks}
    start = time.perf_counter()
    group = LazardGroup(ring)
    chars = table = None
    if args.method in ("kirillov", "both"):
        if ring.p < 3:
            raise RegimeViolation(
                "the orbit-method character formula needs p >= 3")
        orbits = coadjoint_orbits(group)
        chars = kirillov_character(group, orbits)
        degrees = [math.isqrt(o.size) for o in orbits]
        report["kirillov"] = {
            "orbits": len(orbits),
            "orbit_sizes": _degree_counts(o.size for o in orbits),
            "degrees": _degree_counts(degrees),
            "sum_degree_sq": sum(d ** 2 for d in degrees)}
        checks.append({"name": "kirillov", "status": "PASS"})
    if args.method in ("oracle", "both"):
        table = character_table(group, seed=seed)
        report["oracle"] = {
            "classes": len(table.rows),
            "degrees": _degree_counts(table.degrees)}
        checks.append({"name": "oracle", "status": "PASS"})
    if args.method == "both":
        def matched():
            rep = match_tables(chars, table, tol=args.tolerance)
            return {"matched": len(rep.assignment),
                    "assignment": list(rep.assignment),
                    "max_deviation": rep.max_deviation}
        _run_check(checks, "match", matched)
    _emit(report, args, start)
    return _exit_code(checks)


def _twist_regime(ring):
    """The solver regime of the twist check, None where it does not apply:
    generic at class < p, p3_uniform at p = 3, and none at p = 2."""
    if ring.p < 3:
        return None
    if ring.class_ < ring.p:
        return ValuationRegime.generic(ring.p)
    return ValuationRegime.p3_uniform() if ring.p == 3 else None


def _twist_data(group, regime):
    ring = group.ring
    degree = max(2, ring.class_)
    pair = solve_phi_psi(substituted_series(regime, degree), regime, degree)
    # every property that fails raises PropertyFailed
    pairs_checked, mode = twist_map(group, pair)
    return {"regime": regime.tag, "mode": mode,
            "pairs_checked": pairs_checked,
            "properties": {"sum_identity": True, "bijective": True,
                           "conjugate": True}}


def _idempotent_data(group, tol):
    rep = verify_idempotents(group, tol=max(tol, 1e-8))
    if not rep["passed"]:
        raise PropertyFailed(f"witness: {rep['witness']}")
    return {key: rep[key] for key in ("orbits", "fourier_indicator",
                                      "idempotent", "orthogonal",
                                      "complete")}


def _expstar_data(group):
    # a mismatch raises PropertyFailed; a pass compared every pair exactly
    verify_exp_star(group)
    return {"exhaustive": True, "pairs_checked": EXP_STAR_PAIRS,
            "max_deviation": 0.0}


def _p2_data(group, seed, tol):
    # the convolution check runs first: it refuses a ring below uniform
    # depth 2 before any character table is built
    conv = p2_convolution_check(group)
    _, cells = p2_orbit_partition(character_table(group, seed=seed),
                                  tol=max(tol, 1e-8))
    # the report writes the witness tuple as a JSON list
    return {"cells": len(cells),
            "irreducibles": sum(len(c.irreducibles) for c in cells),
            "convolution": conv}


def cmd_verify(args) -> int:
    ring = load_ring_spec(args.input)
    seed = _seed(args)
    tol = args.tolerance
    group = LazardGroup(ring)
    twist = _twist_regime(ring)
    applicable = {
        "idempotents": ring.p >= 3,
        "expstar": ring.p >= 3,
        "twist": twist is not None,
        "p2": ring.p == 2,
    }
    if args.checks:
        selected = args.checks.split(",")
        unknown = sorted(set(selected) - set(applicable))
        if unknown:
            raise ValueError(f"unknown checks {unknown}")
        blocked = [name for name in selected if not applicable[name]]
        if blocked:
            raise RegimeViolation(
                f"checks {blocked} do not apply at p = {ring.p}, "
                f"class {ring.class_}")
        skipped = []
    else:
        selected = [name for name, ok in applicable.items() if ok]
        skipped = [name for name, ok in applicable.items() if not ok]
    checks = []
    report = {"command": "verify", "tool_version": __version__,
              "seed": seed, "inputs": {"ring": ring.describe(),
                                       "checks": selected},
              "tolerance": tol, "checks": checks}
    start = time.perf_counter()
    thunks = {
        "idempotents": lambda: _idempotent_data(group, tol),
        "expstar": lambda: _expstar_data(group),
        "twist": lambda: _twist_data(group, twist),
        "p2": lambda: _p2_data(group, seed, tol),
    }
    for name in selected:
        _run_check(checks, name, thunks[name])
    for name in skipped:
        checks.append({"name": name, "status": "SKIPPED",
                       "witness": f"not applicable at p = {ring.p}"})
    _emit(report, args, start)
    return _exit_code(checks)


def cmd_chain(args) -> int:
    algebra = load_qp_spec(args.input)
    checks = []
    report = {"command": "chain", "tool_version": __version__,
              "seed": _seed(args),
              "inputs": {"algebra": repr(algebra), "levels": args.levels},
              "checks": checks}
    start = time.perf_counter()
    properties = (("a", "bracket-closed"),
                  ("b", "[k,k] in scaled k"),
                  ("c", "nested in next level"),
                  ("d", "full rank"),
                  ("e", "openness witness"))
    try:
        chain = uniform_chain(algebra, args.levels)
    except AssertionFailed as exc:
        checks.append({"name": "chain", "status": "FAIL",
                       "witness": str(exc)})
    else:
        report["levels"] = [
            {"diag": [str(lat.basis[r][r]) for r in range(lat.dimension)],
             "index_in_next": (chain[j].index_in(chain[j + 1])
                               if j + 1 < len(chain) else None)}
            for j, lat in enumerate(chain)]
        for j in range(1, len(chain) + 1):
            for letter, title in properties:
                checks.append({"name": f"k_{j} ({letter}) {title}",
                               "status": "PASS"})
    _emit(report, args, start)
    return _exit_code(checks)


def cmd_restrict(args) -> int:
    ring = load_ring_spec(args.input)
    generators, label = load_subring_spec(args.subring)
    seed = _seed(args)
    checks = []
    report = {"command": "restrict", "tool_version": __version__,
              "seed": seed,
              "inputs": {"ring": ring.describe(),
                         "subring": label or [list(g) for g in generators],
                         "alpha": args.alpha},
              "tolerance": args.tolerance, "checks": checks}
    start = time.perf_counter()
    _run_check(checks, "equivalence", lambda: restriction_harness(
        ring, generators, args.alpha, seed=seed,
        tol=max(args.tolerance, 1e-8)))
    _emit(report, args, start)
    return _exit_code(checks)


# -- parser ---------------------------------------------------------------------

def _tolerance(text) -> float:
    """A finite float: nan compares false against every deviation, so it
    would pass or fail checks at random, and inf would pass them all."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitkit",
        description="Exact orbit-method computations for finite nilpotent "
                    "p-groups.")
    parser.add_argument("--version", action="version",
                        version=f"orbitkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("--seed", type=int, default=0,
                       help="PRNG seed (ORBITKIT_SEED overrides)")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report")
        if output:
            p.add_argument("--output", help="write the report to this path")

    b = sub.add_parser("bch", help="print the Campbell-Hausdorff series "
                                   "with p-adic valuations")
    b.add_argument("--prime", type=int)
    b.add_argument("--degree", type=int, required=True)
    b.add_argument("--regime", help="print the regime-substituted series "
                                    "instead of raw CH")
    b.set_defaults(func=cmd_bch)

    s = sub.add_parser("solve", help="solve the phi/psi decomposition in a "
                                     "valuation regime")
    s.add_argument("--regime", required=True,
                   help="generic | p3-uniform | sqrtp | p2-half | p2-quarter")
    s.add_argument("--prime", type=int)
    s.add_argument("--degree", type=int, required=True)
    common(s)
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("chartable", help="character table via orbits, "
                                         "brute force, or both")
    c.add_argument("--input", required=True, help="ring spec JSON")
    c.add_argument("--method", choices=("kirillov", "oracle", "both"),
                   default="both")
    c.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
    common(c)
    c.set_defaults(func=cmd_chartable)

    v = sub.add_parser("verify", help="run the convolution-identity suites")
    v.add_argument("--input", required=True, help="ring spec JSON")
    v.add_argument("--checks",
                   help="comma list: idempotents,expstar,twist,p2 (default: "
                        "every check applicable to the regime)")
    v.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
    common(v)
    v.set_defaults(func=cmd_verify)

    ch = sub.add_parser("chain", help="build and certify a uniform lattice "
                                      "chain")
    ch.add_argument("--input", required=True, help="Qp algebra spec JSON")
    ch.add_argument("--levels", type=int, required=True)
    common(ch)
    ch.set_defaults(func=cmd_chain)

    r = sub.add_parser("restrict", help="orbit containment vs restriction "
                                        "support")
    r.add_argument("--input", required=True, help="ring spec JSON")
    r.add_argument("--subring", required=True, help="subring spec JSON")
    r.add_argument("--alpha", type=int, default=None)
    r.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
    common(r)
    r.set_defaults(func=cmd_restrict)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The last step, on every path, is ``gc.freeze()``: a command is the
    whole life of its process, and at exit the interpreter's shutdown
    collections would otherwise traverse every tracked object, most of
    them numpy's and the standard library's from import time: about 30 ms
    from ``main`` returning to the process ending, against about 10 ms
    frozen, on a 2-vCPU VM (README, "Command line").  Refcount teardown,
    ``atexit`` and the flushing of stdout and stderr still run.  A caller
    that keeps running after ``main`` returns may call ``gc.unfreeze()``.
    There is no ``gc.collect()`` before the freeze, since it would pay for
    the traversal being skipped, and no ``os._exit``, since it would skip
    ``atexit`` and the buffered writes of an in-process caller.
    """
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputRejected as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OrbitkitError as exc:
        # a check failure raised outside a check, or any other package error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
