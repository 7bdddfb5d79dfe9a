"""The FFT-based transforms against exact-phase references.

Each reference takes its pairing exponents from DualCharacter.phase_on
(exact in Z/p^K) and sums in Python complex arithmetic, so it shares no
code with numpy.fft.  The tolerance 1e-12 is fixed from double precision:
a sum of at most 729 unit-size terms rounds to about 1e-13.
"""

import cmath
import math
import re

import numpy as np
import pytest

from orbitkit import orbitmethod
from orbitkit.errors import PropertyFailed
from orbitkit.harmonic import (ClassFunction, DualCharacter, DualFunction,
                               DualSpace, element_table, fourier,
                               inverse_fourier)
from orbitkit.liering import LazardGroup, Subring, make_ring
from orbitkit.oracle import _conjugation_perm
from orbitkit.orbitmethod import (CoadjointOrbit, coadjoint_orbits,
                                  kirillov_character, p2_orbit_partition)

from conftest import heisenberg

TOL = 1e-12


def mixed_ring():
    """p = 3 with moduli (2, 1, 1): [x_2, x_3] = 3 x_1."""
    return make_ring(3, (2, 1, 1), {(1, 2): {0: 3}}, label="mixed")


def rank3_z8_ring():
    return make_ring(2, (3,) * 3, {(0, 1): {2: 4}}, label="rank3_z8")


def rank0_ring():
    return make_ring(3, (), {}, label="zero")


def filiform_f5():
    return make_ring(5, (1,) * 4, {(0, 1): {2: 1}, (0, 2): {3: 1}},
                     label="filiform-F5")


def phase_matrix(ring):
    """P[a][x] = exact pairing exponent of character a at element x."""
    X = element_table(ring)
    space = DualSpace(ring)
    return [[int(e) for e in space.character(a).phase_on(X)]
            for a in range(len(space))]


def reference_fourier(ring, values):
    P = phase_matrix(ring)
    n, big = len(values), ring.big
    return np.array([sum(complex(v) * cmath.exp(-2j * cmath.pi * e / big)
                         for v, e in zip(values, row)) / n for row in P])


def reference_inverse(ring, values):
    P = phase_matrix(ring)
    n, big = len(values), ring.big
    return np.array([sum(complex(values[a]) * cmath.exp(2j * cmath.pi
                                                        * P[a][x] / big)
                         for a in range(n)) for x in range(n)])


def random_values(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


RINGS = [mixed_ring, rank3_z8_ring, rank0_ring,
         lambda: heisenberg(3)]
IDS = ["Z9xF3xF3", "rank3_z8", "rank0", "H(F3)"]


class TestTransformsAgainstExactPhases:
    @pytest.mark.parametrize("make", RINGS, ids=IDS)
    def test_fourier(self, make):
        ring = make()
        vals = random_values(ring.order(), 1)
        got = fourier(ClassFunction(ring, vals)).values
        assert got.shape == (ring.order(),)
        assert np.max(np.abs(got - reference_fourier(ring, vals))) <= TOL

    @pytest.mark.parametrize("make", RINGS, ids=IDS)
    def test_inverse_fourier(self, make):
        ring = make()
        vals = random_values(ring.order(), 2)
        got = inverse_fourier(DualFunction(ring, vals)).values
        assert got.shape == (ring.order(),)
        assert np.max(np.abs(got - reference_inverse(ring, vals))) <= TOL


def direct_orbit_sum(ring, space, indices):
    """sum_{f in Omega} f(x) over the ring's grid, one character at a time."""
    X = element_table(ring)
    total = np.zeros(len(X), dtype=np.complex128)
    for i in indices:
        total += DualCharacter(ring, space.exponents[int(i)]).values_on(X)
    return total


class TestKirillovAgainstDirectSums:
    @pytest.mark.parametrize("make", [lambda: heisenberg(3, 2), filiform_f5],
                             ids=["H(Z/9)", "filiform-F5"])
    def test_orbit_characters(self, make):
        ring = make()
        group = LazardGroup(ring)
        for orbit in coadjoint_orbits(ring):
            chi = kirillov_character(ring, orbit, group=group)
            direct = direct_orbit_sum(ring, orbit.space, orbit.indices)
            direct /= math.isqrt(orbit.size)
            assert np.max(np.abs(chi.values.values - direct)) <= TOL


class TestP2IdempotentsAgainstDirectSums:
    def test_rank3_z8_cells(self):
        ring = rank3_z8_ring()
        group = LazardGroup(ring)
        cells = p2_orbit_partition(ring, group=group)
        sub = Subring(ring, [ring.scale(ring.basis(i), 2)
                             for i in range(ring.rank)], label="2g")
        idx_g2 = sub.ambient_indices()
        outside = np.ones(len(group), dtype=bool)
        outside[idx_g2] = False
        for cell in cells:
            space = cell.orbit.space
            direct = direct_orbit_sum(space.ring, space, cell.orbit.indices)
            vals = cell.idempotent.values
            assert np.max(np.abs(vals[idx_g2] - direct)) <= TOL
            assert not np.any(vals[outside])


def fresh_audit(group, seed, samples):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        g = tuple(int(rng.integers(0, s)) for s in group.ring.sizes)
        out.append((g, _conjugation_perm(group, g)))
    return out


class TestAuditPermutations:
    def test_memo_equals_fresh_permutations(self, monkeypatch):
        ring = heisenberg(3, 2)
        group = LazardGroup(ring)
        calls = []
        real = orbitmethod._conjugation_perm

        def counting(grp, g):
            calls.append(g)
            return real(grp, g)

        monkeypatch.setattr(orbitmethod, "_conjugation_perm", counting)
        orbits = coadjoint_orbits(ring)
        for orbit in orbits[:4]:
            kirillov_character(ring, orbit, group=group, seed=3, samples=4)
        for orbit in orbits[:2]:
            kirillov_character(ring, orbit, group=group, seed=5)
        assert len(calls) == 4 + 5
        assert sorted(group.audit_perms) == [(3, 4), (5, 5)]
        for (seed, samples), pairs in group.audit_perms.items():
            expected = fresh_audit(group, seed, samples)
            assert [g for g, _ in pairs] == [g for g, _ in expected]
            for (_, perm), (_, ref) in zip(pairs, expected):
                assert np.array_equal(perm, ref)

    def test_forged_orbit_fails_the_audit(self):
        ring = heisenberg(3)
        group = LazardGroup(ring)
        space = DualSpace(ring)
        # nine characters (a, 0, c): a square count, not a union of orbits
        forged = CoadjointOrbit(space, sorted(
            space.index_of((a, 0, c)) for a in range(3) for c in range(3)))
        direct = direct_orbit_sum(ring, space, forged.indices) / 3
        first = None
        for g, perm in fresh_audit(group, 0, 5):
            dev = np.max(np.abs(direct[perm] - direct))
            if dev > 1e-9:
                first = (g, dev)
                break
        assert first is not None
        with pytest.raises(PropertyFailed) as info:
            kirillov_character(ring, forged, group=group)
        m = re.fullmatch(r"orbit character varies on a conjugacy class: "
                         r"deviation (\S+) under conjugation by e\^(.+)",
                         str(info.value))
        assert m is not None
        assert m.group(2) == str(first[0])
        assert m.group(1) == f"{first[1]:.2e}"
