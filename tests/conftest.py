"""Shared rings and groups; session-scoped because everything is immutable."""

import random

import numpy as np
import pytest
from hypothesis import settings

from orbitkit import oracle
from orbitkit.harmonic import ClassFunction
from orbitkit.liering import LazardGroup, make_ring
from orbitkit.modlin import solve_mod
from orbitkit.orbitmethod import pairing_scale


# property tests draw the same examples on every run and store none
settings.register_profile("orbitkit", derandomize=True, database=None,
                          deadline=None, max_examples=10)
settings.load_profile("orbitkit")


def heisenberg(p, exponent=1):
    """Rank-3 ring over Z/p^exponent with [x, y] = z."""
    return make_ring(p, (exponent,) * 3, {(0, 1): {2: 1}},
                     label=f"heis(p={p},e={exponent})")


def phases(ring, exponents, X):
    """Pairing exponents in Z/p^K of the ring's character with these
    exponents (reduced mod the moduli) at the coordinate rows X: the
    exponents times the pairing scale, dotted with each row."""
    a = ring.grid.elements[ring.grid.index_batch(exponents)]
    return (np.asarray(X, dtype=np.int64) @ (a * pairing_scale(ring))) \
        % ring.big


def character_values(ring, exponents, X):
    """The character's complex values at the rows X."""
    return np.exp(2j * np.pi * phases(ring, exponents, X) / ring.big)


def as_function(ring, exponents):
    """A dual character of the ring as a dense function on it."""
    return ClassFunction(ring, character_values(ring, exponents,
                                                ring.grid.elements))


def express(sub, x):
    """Coordinates of the ambient element x in the subring basis, canonical
    mod the orders, solved for in the embedded copy (modlin.solve_mod);
    ValueError when x lies outside the subring."""
    ring = sub.ring
    rows = [ring.embed(b) for b in sub.basis_coords]
    target = ring.embed(ring.element(x))
    if not rows:
        if any(target):
            raise ValueError(f"{x} is not in the trivial subring")
        return ()
    sol = solve_mod(rows, target, ring.p, ring.big)
    if sol is None:
        raise ValueError(f"{x} is not in the subring")
    return tuple(c % ring.p ** k for c, k in zip(sol, sub.orders))


def inner(f1, f2):
    """(1/n) sum f1 conj(f2) over a shared domain, mass-1 Haar."""
    return complex(np.vdot(f2.values, f1.values) / len(f1.values))


def ch(ring, u, v):
    """The group product exp(u) exp(v) of two elements, as a tuple."""
    return tuple(ring.ch_batch(u, v).tolist())


def conjugation_perm(group, g):
    """Grid indices of g x g^-1 over every x, read as (g x) g^-1: the left
    product moved back through the inverse of the right permutation."""
    right = oracle._right_perm(group, g)
    inverse = np.empty_like(right)
    inverse[right] = np.arange(len(right))
    return inverse[oracle._left_perm(group, g)]


def bincount_class_matrix(part, a, law):
    """Burnside's class matrix M_a under ``law``, built for the class a
    alone: one translation call for the members of C_a, one bincount of
    the labels.  It translates through ``oracle.translates``, so a test
    that patches the oracle's translations patches this reference too."""
    r = len(part)
    b = part.labels[oracle.translates(part.group, law, part.classes[a],
                                      part.reps)]
    flat = b * r + np.arange(r, dtype=np.int64)
    return np.bincount(flat.ravel(), minlength=r * r).reshape(r, r)


def check_group_axioms(group, rng=None, *, assoc_limit=130, trials=10_000):
    """Identity and inverses on every element; associativity on all triples
    up to assoc_limit elements, on seeded random triples above."""
    ring = group.ring
    E = group.elements
    n = group.size
    zero = np.zeros_like(E)
    ok_identity = (np.array_equal(ring.ch_batch(E, zero), E)
                   and np.array_equal(ring.ch_batch(zero, E), E))
    neg = np.mod(-E, ring._mods) if ring.rank else E
    ok_inverse = (not ring.rank) or (
        not np.any(ring.ch_batch(E, neg)) and not np.any(ring.ch_batch(neg, E)))
    if n <= assoc_limit:
        idx = np.arange(n)
        ia, ib, ic = np.meshgrid(idx, idx, idx, indexing="ij")
        A, B, C = E[ia.ravel()], E[ib.ravel()], E[ic.ravel()]
        mode, count = "exhaustive", n ** 3
    else:
        rng = rng or random.Random(0)
        pick = np.array([[rng.randrange(n) for _ in range(3)]
                         for _ in range(trials)])
        A, B, C = E[pick[:, 0]], E[pick[:, 1]], E[pick[:, 2]]
        mode, count = "sampled", trials
    left = ring.ch_batch(ring.ch_batch(A, B), C)
    right = ring.ch_batch(A, ring.ch_batch(B, C))
    ok_assoc = np.array_equal(left, right)
    return {"identity": bool(ok_identity), "inverse": bool(ok_inverse),
            "associativity": bool(ok_assoc), "mode": mode, "triples": count}


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


@pytest.fixture(scope="session")
def abelian_z4sq_group(abelian_z4sq):
    return LazardGroup(abelian_z4sq)
