"""Shared rings and groups; session-scoped because everything is immutable."""

import random

import numpy as np
import pytest
from hypothesis import settings

from orbitkit import oracle
from orbitkit.harmonic import ClassFunction
from orbitkit.liering import LazardGroup, make_ring
from orbitkit.modlin import solve_mod
from orbitkit.orbitmethod import (CoadjointOrbit, coadjoint_orbits,
                                  pairing_scale)


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


def leaving_member(group, indices):
    """The smallest of the dual characters ``indices`` (grid indices) that
    f -> f o Ad(e^{e_i}) moves out of them for some basis vector e_i, or
    None when they are closed.  Each image is found by its exact phases
    at the conjugates e^{e_i} x e^{-e_i} (``conjugation_perm``), searched
    over every character: for small rings."""
    ring = group.ring
    X = ring.grid.elements
    table = np.array([phases(ring, a, X) for a in X])
    lookup = {row.tobytes(): b for b, row in enumerate(table)}
    conj = [conjugation_perm(group, ring.basis(i)) for i in range(ring.rank)]
    members = {int(f) for f in indices}
    for f in sorted(members):
        if any(lookup[table[f][c].tobytes()] not in members for c in conj):
            return f
    return None


def closure_failure(group, orbit, position):
    """kirillov_character's text for the orbit at ``position`` when it is
    not closed (``leaving_member``), else None."""
    x = leaving_member(group, orbit.indices)
    if x is None:
        return None
    return (f"orbit {position} is not closed under the coadjoint action: "
            f"grid index {x} leaves it")


def forged_h3_orbits(h3):
    """A square orbit that is not a union of orbits (the nine characters
    (a, 0, c)) and an orbit of size 2, neither an orbit of H(F3)."""
    square = CoadjointOrbit(h3, sorted(
        h3.grid.index_batch((a, 0, c)) for a in range(3) for c in range(3)))
    return square, CoadjointOrbit(h3, [0, 1])


def forged_closure_lists(h3_group):
    """Orbit lists of H(F3) whose orbits are all square, each with one
    orbit that is not closed under the coadjoint action, by name, with that
    orbit's position:

    * "square": the (a, 0, c) square in place of the first orbit of size 9;
    * "moved": that orbit with one member moved to the next grid index;
    * "overlapping": the second orbit of size 9 replaced by the first with
      its smallest member swapped for a fixed character.  It overlaps the
      first in eight members, and every member it moves out lies in the
      first, so only a check of each orbit on its own catches it.
    """
    h3 = h3_group.ring
    orbits = coadjoint_orbits(h3_group)
    big = [i for i, o in enumerate(orbits) if o.size == 9]
    idx = orbits[big[0]].indices
    at = next(t for t, x in enumerate(idx) if x + 1 not in idx)
    moved = CoadjointOrbit(h3, sorted(np.append(np.delete(idx, at),
                                                idx[at] + 1)))
    fixed = next(o.indices[0] for o in orbits if o.size == 1)
    overlapping = CoadjointOrbit(h3, sorted(np.append(idx[1:], fixed)))
    lists = {}
    for name, forged, position in (
            ("square", forged_h3_orbits(h3)[0], big[0]),
            ("moved", moved, big[0]),
            ("overlapping", overlapping, big[1])):
        out = list(orbits)
        out[position] = forged
        lists[name] = (out, position)
    return lists


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
