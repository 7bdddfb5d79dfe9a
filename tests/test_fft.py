"""The FFT-based transforms against exact-phase references.

Each reference takes its pairing exponents from the DualSpace weights
(conftest ``phases``, exact in Z/p^K) and sums in Python complex
arithmetic, so it shares no code with numpy.fft.  The tolerance 1e-12 is
fixed from double precision: a sum of at most 729 unit-size terms rounds
to about 1e-13.
"""

import cmath
import math

import numpy as np
import pytest

from orbitkit.errors import PropertyFailed
from orbitkit.harmonic import (ClassFunction, DualFunction, DualSpace,
                               fourier, inverse_fourier)
from orbitkit.liering import LazardGroup, make_ring
from orbitkit.oracle import character_table, conjugacy_classes
from orbitkit.orbitmethod import (CoadjointOrbit, coadjoint_orbits,
                                  indicators, kirillov_character,
                                  p2_orbit_partition)

from conftest import character_values, heisenberg, phases

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
    space = DualSpace(ring)
    return [[int(e) for e in phases(space, exponents, X)]
            for exponents in space.exponents]


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
    X = ring.grid.elements
    total = np.zeros(len(X), dtype=np.complex128)
    for i in indices:
        total += character_values(space, space.exponents[int(i)], X)
    return total


class TestKirillovAgainstDirectSums:
    @pytest.mark.parametrize("make", [lambda: heisenberg(3, 2), filiform_f5],
                             ids=["H(Z/9)", "filiform-F5"])
    def test_orbit_characters(self, make):
        ring = make()
        group = LazardGroup(ring)
        orbits = coadjoint_orbits(group)
        for orbit, chi in zip(orbits, kirillov_character(group, orbits)):
            direct = direct_orbit_sum(ring, orbit.space, orbit.indices)
            direct /= math.isqrt(orbit.size)
            assert np.max(np.abs(chi.values - direct)) <= TOL


class TestP2IdempotentsAgainstDirectSums:
    def test_rank3_z8_cells(self):
        ring = rank3_z8_ring()
        group = LazardGroup(ring)
        # e_Omega on G^2 = exp(2g): the transform of the cell's orbit
        # indicator on the dual of the ring of 2g
        sub, cells = p2_orbit_partition(character_table(group))
        for cell in cells:
            space = cell.orbit.space
            assert space.ring is sub.induced
            direct = direct_orbit_sum(space.ring, space, cell.orbit.indices)
            vals = inverse_fourier(indicators([cell.orbit])).values[0]
            assert np.max(np.abs(vals - direct)) <= TOL


class TestKirillovClassCheck:
    def test_forged_orbit_fails_the_class_check(self):
        ring = heisenberg(3)
        group = LazardGroup(ring)
        space = DualSpace(ring)
        # nine characters (a, 0, c): a square count, not a union of orbits
        forged = CoadjointOrbit(space, sorted(
            ring.grid.index_batch((a, 0, c))
            for a in range(3) for c in range(3)))
        part = conjugacy_classes(group)
        reps = [c[0] for c in part.classes]

        def spread(vals):
            return np.abs(vals - vals[reps][part.labels])

        # the largest deviations tie, so the argmax is read from the values
        # the check computes; the exact-phase sums must agree that it is a
        # largest one
        fft = spread(inverse_fourier(indicators([forged])).values[0] / 3)
        x = int(np.argmax(fft))
        direct = spread(direct_orbit_sum(ring, space, forged.indices) / 3)
        assert direct[x] > 1e-9
        assert abs(direct[x] - direct.max()) <= TOL
        assert abs(fft[x] - direct[x]) <= TOL
        with pytest.raises(PropertyFailed) as info:
            kirillov_character(group, [forged])
        assert str(info.value) == (
            f"orbit character varies on a conjugacy class: deviation "
            f"{fft[x]:.2e} at grid index {x}")
