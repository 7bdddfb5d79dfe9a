"""Shared rings and groups; session-scoped because everything is immutable."""

import pytest
from hypothesis import settings

from orbitkit.harmonic import ClassFunction
from orbitkit.liering import LazardGroup, make_ring


# property tests draw the same examples on every run and store none
settings.register_profile("orbitkit", derandomize=True, database=None,
                          deadline=None, max_examples=10)
settings.load_profile("orbitkit")


def heisenberg(p, exponent=1):
    """Rank-3 ring over Z/p^exponent with [x, y] = z."""
    return make_ring(p, (exponent,) * 3, {(0, 1): {2: 1}},
                     label=f"heis(p={p},e={exponent})")


def as_function(chi):
    """A dual character as a dense function on its ring."""
    return ClassFunction(chi.ring, chi.values_on(chi.ring.grid.elements))


def upper_unitriangular4(q):
    """Lie ring of strictly upper triangular 4x4 matrices over F_q.

    Coordinates: x1=E12, x2=E23, x3=E34, x4=E13, x5=E24, x6=E14.
    """
    return make_ring(q, (1,) * 6,
                     {(0, 1): {3: 1}, (1, 2): {4: 1}, (0, 4): {5: 1},
                      (2, 3): {5: q - 1}},
                     label=f"u4(q={q})")


@pytest.fixture(scope="session")
def h3():
    return heisenberg(3)


@pytest.fixture(scope="session")
def h5():
    return heisenberg(5)


@pytest.fixture(scope="session")
def h7():
    return heisenberg(7)


@pytest.fixture(scope="session")
def z9():
    return heisenberg(3, exponent=2)


@pytest.fixture(scope="session")
def u4_f5():
    return upper_unitriangular4(5)


@pytest.fixture(scope="session")
def rank3_z8():
    """p = 2 uniform quotient: rank 3 over Z/8, [x, y] = 4z, depth 2."""
    return make_ring(2, (3,) * 3, {(0, 1): {2: 4}}, label="rank3_z8")


@pytest.fixture(scope="session")
def abelian_z4sq():
    return make_ring(2, (2, 2), {}, label="(Z/4)^2")


@pytest.fixture(scope="session")
def h3_group(h3):
    return LazardGroup(h3)


@pytest.fixture(scope="session")
def h5_group(h5):
    return LazardGroup(h5)


@pytest.fixture(scope="session")
def z9_group(z9):
    return LazardGroup(z9)


@pytest.fixture(scope="session")
def rank3_z8_group(rank3_z8):
    return LazardGroup(rank3_z8)
