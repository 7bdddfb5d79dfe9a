"""Seeded class-2 Lie rings over F_p for the ``small_rings`` workload.

Each ring has ``rank - centre`` upper coordinates followed by ``centre``
central coordinates.  Brackets go only from pairs of upper coordinates into
the central ones, so every triple bracket vanishes and Jacobi holds by
construction; the brackets are required to span the centre, so the class is
exactly 2.  The generator is a pure function of its seed, and it rejects
draws whose group would exceed the program's caps.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# The program's own caps: the largest group orbitmethod tabulates
# (_TABLE_LIMIT) and the oracle's class count (CLASS_CAP).
ORDER_LIMIT = 2048
CLASS_LIMIT = 512

# (p, rank, centre) of each generated ring.  The shapes are fixed and only
# the structure constants depend on the seed, so the work per ring, and with
# it the workload's run time, changes little from seed to seed.
SHAPES = ((3, 5, 2), (3, 5, 1), (3, 4, 1))


def rank_mod_p(rows, p):
    """Rank over F_p of an integer matrix given as a list of rows."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def class_count(p, upper, centre, table):
    """Number of conjugacy classes of the class-2 group with this bracket.

    ``table`` maps upper pairs (i, j), i < j, to their bracket as a vector
    over the central coordinates.  Conjugation moves x to x + [g, x], so the
    class of x has p^rank(ad x) elements and k(G) = sum_x p^-rank(ad x).
    The central part of x leaves ad x unchanged.
    """
    total = Fraction(0)
    for x in itertools.product(range(p), repeat=upper):
        rows = []
        for i in range(upper):
            row = [0] * centre
            for j in range(upper):
                vec = table.get((min(i, j), max(i, j)))
                if vec is None:
                    continue
                sign = 1 if i < j else -1
                for m in range(centre):
                    row[m] += sign * x[j] * vec[m]
            rows.append(row)
        total += Fraction(1, p ** rank_mod_p(rows, p))
    return int(total * p ** centre)


def class2_ring(rng, p, rank, centre, label):
    """One class-2 ring spec in the CLI's JSON format, drawn from ``rng``."""
    upper = rank - centre
    if p ** rank > ORDER_LIMIT:
        raise ValueError(f"p^rank = {p ** rank} exceeds {ORDER_LIMIT}")
    pairs = list(itertools.combinations(range(upper), 2))
    if centre > len(pairs):
        raise ValueError(f"{len(pairs)} brackets cannot span a centre of "
                         f"rank {centre}")
    while True:
        table = {}
        for pair in pairs:
            vec = [rng.randrange(p) for _ in range(centre)]
            if any(vec):
                table[pair] = vec
        spans_centre = rank_mod_p(list(table.values()), p) == centre
        if spans_centre and class_count(p, upper, centre,
                                        table) <= CLASS_LIMIT:
            break
    brackets = {}
    for (i, j), vec in sorted(table.items()):
        brackets[f"({i + 1},{j + 1})"] = {
            str(upper + m + 1): c for m, c in enumerate(vec) if c}
    return {"p": p, "moduli": [1] * rank, "brackets": brackets,
            "label": label}


def class2_rings(seed):
    """The seeded rings of ``small_rings``, one per entry of SHAPES."""
    rng = random.Random(f"class2:{seed}")
    return [class2_ring(rng, p, rank, centre,
                        f"class2-s{seed}-{k}-F{p}-r{rank}c{centre}")
            for k, (p, rank, centre) in enumerate(SHAPES)]
