"""Acceptance gate: every shipped guarantee, one printed line each.

Each criterion prints "[acceptance] <name>: PASS|FAIL" on the real stdout
so the gate stays readable under pytest capture.  Character tables and
orbit families are cached at module scope and shared across criteria; the
slowest artifacts (the order-15625 unitriangular group) are built exactly
once.
"""

import functools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from orbitkit.chsolver import (ValuationRegime, check_identity,
                               solve_phi_psi, substituted_series)
from orbitkit.freelie import _dynkin_bch, bch, valuation_of
from orbitkit.harmonic import inverse_fourier
from orbitkit.liering import LazardGroup, make_ring, twist_map
from orbitkit.oracle import (character_table, conjugacy_classes,
                            match_tables)
from orbitkit.orbitmethod import (coadjoint_orbits, indicators,
                                  kirillov_character, p2_orbit_partition,
                                  verify_exp_star)
from orbitkit.padic import QpLieAlgebra, restriction_harness, uniform_chain

from conftest import heisenberg, upper_unitriangular4

_CAPTURE = None


@pytest.fixture(autouse=True)
def _passthrough_capture(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def announce(name, passed):
    line = f"[acceptance] {name}: {'PASS' if passed else 'FAIL'}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def criterion(name):
    """Print the one-line verdict whatever way the test body exits."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                announce(name, False)
                raise
            announce(name, True)
        return inner
    return wrap


@functools.lru_cache(maxsize=None)
def ring_of(name):
    if name == "u4_f5":
        return upper_unitriangular4(5)
    if name == "heisenberg_z9":
        return heisenberg(3, exponent=2)
    return heisenberg(int(name[-1]))


@functools.lru_cache(maxsize=None)
def group_of(name):
    return LazardGroup(ring_of(name))


@functools.lru_cache(maxsize=None)
def orbits_of(name):
    return tuple(coadjoint_orbits(group_of(name)))


@functools.lru_cache(maxsize=None)
def chars_of(name):
    return kirillov_character(group_of(name), orbits_of(name))


@functools.lru_cache(maxsize=None)
def table_of(name):
    return character_table(group_of(name))


HEISENBERG_FP = {"heisenberg_f3": 3, "heisenberg_f5": 5, "heisenberg_f7": 7}
ALL_ODD_GROUPS = (*HEISENBERG_FP, "heisenberg_z9", "u4_f5")


@criterion("bch valuation certificate, two routes, N=8, p in {2,3,5,7}")
def test_bch_valuation_certificate():
    start = time.perf_counter()
    series = bch(8)
    dynkin = _dynkin_bch(8)
    for n in range(1, 9):
        assert series.component(n) == dynkin[n]
    for p in (2, 3, 5, 7):
        for n in range(1, 9):
            v = valuation_of(series.component(n), p)
            assert v >= -Fraction(n - 1, p - 1)
    assert time.perf_counter() - start < 10.0


@criterion("phi/psi identity and output bounds to degree 6, six regimes")
def test_solver_regimes():
    start = time.perf_counter()
    regimes = [ValuationRegime.generic(3), ValuationRegime.generic(5),
               ValuationRegime.sqrtp(5), ValuationRegime.p3_uniform(),
               ValuationRegime.p2_half(), ValuationRegime.p2_quarter()]
    for regime in regimes:
        series = substituted_series(regime, 6)
        pair = solve_phi_psi(series, regime, 6)
        assert check_identity(series, pair, 6), regime.tag
        # the floors hold on the pair that solves H, s^n phi_n and s^n psi_n;
        # the pair itself is rational, so it solves CH unscaled
        for n in range(1, 7):
            for side in (pair.phi, pair.psi):
                assert regime.valuation(side.component(n), n) \
                    >= regime.output_bound(n), (regime.tag, n)
                assert all(type(c) is Fraction
                           for c in side.terms.values()), regime.tag
    assert time.perf_counter() - start < 30.0


@criterion("heisenberg character tables match brute force")
def test_heisenberg_tables_match():
    start = time.perf_counter()
    for name, p in HEISENBERG_FP.items():
        sizes = Counter(o.size for o in orbits_of(name))
        assert sizes == {1: p * p, p * p: p - 1}, name
    for name in (*HEISENBERG_FP, "heisenberg_z9"):
        table = table_of(name)
        report = match_tables(chars_of(name), table)
        assert len(report.assignment) == len(table.rows), name
        assert report.max_deviation < 1e-8, name
    assert time.perf_counter() - start < 60.0


@criterion("U4(F5) orbit census equals the oracle census")
def test_unitriangular_census():
    start = time.perf_counter()
    orbits = orbits_of("u4_f5")
    table = table_of("u4_f5")
    assert len(orbits) == len(table.rows)
    assert sum(o.size for o in orbits) == 5 ** 6
    roots = []
    for orbit in orbits:
        root = math.isqrt(orbit.size)
        assert root * root == orbit.size, orbit.size
        roots.append(root)
    assert Counter(roots) == Counter(int(d) for d in table.degrees)
    assert time.perf_counter() - start < 900.0


@criterion("exp* intertwines the two convolutions; twist map certified")
def test_exp_star_and_twist():
    for name in ("heisenberg_f3", "heisenberg_f5"):
        # a mismatch raises PropertyFailed
        assert verify_exp_star(group_of(name)) is None, name
    for name, p in (("heisenberg_f3", 3), ("heisenberg_f5", 5)):
        regime = ValuationRegime.generic(p)
        pair = solve_phi_psi(substituted_series(regime, 4), regime, 4)
        # a failed property raises, so a return is a pass
        pairs_checked, mode = twist_map(group_of(name), pair)
        assert mode == "exhaustive", name
        assert pairs_checked == ring_of(name).order() ** 2


@criterion("p=2 dual partition covers the irreducibles exactly once")
def test_p2_partition():
    start = time.perf_counter()
    ring = make_ring(2, (3, 3, 3), {(0, 1): {2: 4}}, label="rank3_z8")
    group = LazardGroup(ring)
    table = character_table(group)
    sub, cells = p2_orbit_partition(table, tol=1e-8)

    seen = sorted(i for c in cells for i in c.irreducibles)
    assert seen == list(range(len(table.rows)))
    assert sum(c.orbit.size for c in cells) == 4 ** 3

    # independent scalar-multiple check on G^2 = exp(2g), the even
    # coordinates, against e_Omega from the cell's orbit in (2g)*
    g2 = sub.ambient_indices()
    even = np.all(group.elements % 2 == 0, axis=1)
    assert sorted(g2.tolist()) == np.flatnonzero(even).tolist()
    chi_g2 = table.rows[:, table.partition.labels][:, g2]
    for cell in cells:
        e = inverse_fourier(indicators([cell.orbit])).values[0]
        peak = int(np.argmax(np.abs(e)))
        vhat = e / e[peak]
        for rho in cell.irreducibles:
            chi = chi_g2[rho]
            assert abs(chi[peak]) > 1e-8
            assert np.max(np.abs(chi / chi[peak] - vhat)) <= 1e-8
    assert time.perf_counter() - start < 60.0


@criterion("uniform lattice chains over Q_3 and Q_2, five properties")
def test_uniform_chains():
    for p in (3, 2):
        algebra = QpLieAlgebra(p, 3, {(0, 1): {2: 1}}, label=f"heis-q{p}")
        factor = 4 if p == 2 else p
        chain = uniform_chain(algebra, 4)
        assert len(chain) == 4
        n = algebra.dimension
        for j, lat in enumerate(chain, start=1):
            scaled = lat.scale(factor)
            for a in range(n):
                for b in range(a + 1, n):
                    w = algebra.bracket(lat.basis[a], lat.basis[b])
                    assert lat.contains(w), (p, j, "closure")
                    assert scaled.contains(w), (p, j, "scaled bracket")
            if j < len(chain):
                assert all(chain[j].contains(col) for col in lat.basis), \
                    (p, j, "nesting")
            assert len(lat.basis) == n, (p, j, "rank")
            lead = Fraction(factor, p ** j)
            for m in range(n):
                witness = tuple(lead * c for c in algebra.basis(m))
                assert lat.contains(witness), (p, j, "openness")


@criterion("orbit containment iff restriction support, all pairs")
def test_restriction_equivalence():
    report = restriction_harness(ring_of("heisenberg_f3"), [(0, 0, 1)])
    assert (report["pairs"], report["contained"]) == (33, 11)
    assert report["finite_shadow"]
    report = restriction_harness(ring_of("heisenberg_z9"),
                                 [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert (report["pairs"], report["contained"]) == (2835, 153)


@criterion("orbit characters are orthonormal on every test group")
def test_orthonormality():
    for name in ALL_ODD_GROUPS:
        # the values at the class representatives, weighted by class size
        chars = chars_of(name)
        part = conjugacy_classes(group_of(name))
        gram = (chars * part.sizes) @ chars.conj().T / len(part.group)
        dev = float(np.max(np.abs(gram - np.eye(len(chars)))))
        assert dev < 1e-9, (name, dev)
