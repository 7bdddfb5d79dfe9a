"""The FFT-based transforms against exact-phase references.

Each reference takes its pairing exponents from the pairing scale
(conftest ``phases``, exact in Z/p^K) and sums in Python complex
arithmetic, so it shares no code with numpy.fft.  The tolerance 1e-12 is
fixed from double precision: a sum of at most 729 unit-size terms rounds
to about 1e-13.
"""

import cmath
import itertools
import math

import numpy as np
import pytest

from orbitkit.errors import PropertyFailed
from orbitkit.harmonic import (ClassFunction, DualFunction, fourier,
                               inverse_fourier)
from orbitkit.liering import LazardGroup, make_ring
from orbitkit.oracle import character_table, conjugacy_classes
from orbitkit.orbitmethod import (CoadjointOrbit, _block_characters,
                                  coadjoint_orbits, indicators,
                                  kirillov_character, p2_orbit_partition)

from conftest import character_values, heisenberg, leaving_member, phases

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
    X = ring.grid.elements
    return [[int(e) for e in phases(ring, exponents, X)] for exponents in X]


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


def direct_orbit_sum(ring, indices):
    """sum_{f in Omega} f(x) over the ring's grid, one character at a time."""
    X = ring.grid.elements
    total = np.zeros(len(X), dtype=np.complex128)
    for i in indices:
        total += character_values(ring, X[int(i)], X)
    return total


class TestKirillovAgainstDirectSums:
    @pytest.mark.parametrize("make", [lambda: heisenberg(3, 2), filiform_f5],
                             ids=["H(Z/9)", "filiform-F5"])
    def test_orbit_characters(self, make):
        ring = make()
        group = LazardGroup(ring)
        orbits = coadjoint_orbits(group)
        reps = conjugacy_classes(group).reps
        chars = kirillov_character(group, orbits)
        # the block helper's values on G, which verify reads, and the
        # characters at the class representatives
        blocks = _block_characters(group, orbits)
        rows = itertools.chain.from_iterable(vals for _, _, vals in blocks)
        for orbit, chi, row in zip(orbits, chars, rows, strict=True):
            direct = direct_orbit_sum(ring, orbit.indices)
            direct /= math.isqrt(orbit.size)
            assert np.max(np.abs(row - direct)) <= TOL
            assert np.max(np.abs(chi - direct[reps])) <= TOL


class TestP2IdempotentsAgainstDirectSums:
    def test_rank3_z8_cells(self):
        ring = rank3_z8_ring()
        group = LazardGroup(ring)
        # e_Omega on G^2 = exp(2g): the transform of the cell's orbit
        # indicator on the dual of the ring of 2g
        sub, cells = p2_orbit_partition(character_table(group))
        for cell in cells:
            assert cell.orbit.ring is sub.induced
            direct = direct_orbit_sum(sub.induced, cell.orbit.indices)
            vals = inverse_fourier(indicators([cell.orbit])).values[0]
            assert np.max(np.abs(vals - direct)) <= TOL


class TestKirillovClassCheck:
    def test_forged_orbit_fails_the_class_check(self):
        ring = heisenberg(3)
        group = LazardGroup(ring)
        # nine characters (a, 0, c): a square count, not a union of orbits,
        # so not closed.  Its first member moved out is (0, 0, 1): composed
        # with Ad(e^(1, 0, 0)) it reads (0, 1, 1), found by exact phases
        forged = CoadjointOrbit(ring, sorted(
            ring.grid.index_batch((a, 0, c))
            for a in range(3) for c in range(3)))
        x = int(ring.grid.index_batch((0, 0, 1)))
        assert leaving_member(group, forged.indices) == x
        with pytest.raises(PropertyFailed) as info:
            kirillov_character(group, [forged])
        assert str(info.value) == (
            f"orbit 0 is not closed under the coadjoint action: "
            f"grid index {x} leaves it")
