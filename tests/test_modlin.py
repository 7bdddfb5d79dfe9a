"""Module linear algebra over Z/p^K: Howell spans and cyclic decompositions."""

import random
from itertools import product

from orbitkit.modlin import (cyclic_basis, howell_form, member, solve_mod,
                             span_equal)


def brute_span(rows, big):
    """All Z-combinations of the rows, as a frozenset of tuples."""
    n = len(rows[0])
    span = {(0,) * n}
    frontier = [(0,) * n]
    while frontier:
        v = frontier.pop()
        for r in rows:
            w = tuple((a + b) % big for a, b in zip(v, r))
            if w not in span:
                span.add(w)
                frontier.append(w)
    return frozenset(span)


def additive_order(row, big):
    t = 1
    while any(t * x % big for x in row):
        t += 1
    return t


class TestHowellForm:
    def test_membership_agrees_with_brute_force(self):
        rng = random.Random(0)
        for _ in range(20):
            p, cap = rng.choice(((2, 3), (3, 2)))
            big = p ** cap
            n = rng.randint(1, 3)
            rows = [[rng.randrange(big) for _ in range(n)]
                    for _ in range(rng.randint(1, 3))]
            span = brute_span(rows, big)
            h = howell_form(rows, p, big)
            for v in product(range(big), repeat=n):
                assert member(v, h, p, big) == (v in span)

    def test_canonical_under_row_shuffles(self):
        rng = random.Random(1)
        for _ in range(20):
            rows = [[rng.randrange(8) for _ in range(3)] for _ in range(3)]
            h = howell_form(rows, 2, 8)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert howell_form(shuffled, 2, 8) == h

    def test_annihilator_closure(self):
        # the span of (2, 1) in (Z/4)^2 contains (0, 2) = 2*(2, 1); a pivot
        # at the second column alone would miss it without the closure rows
        h = howell_form([[2, 1]], 2, 4)
        assert member([0, 2], h, 2, 4)

    def test_span_equal(self):
        assert span_equal([[2, 1]], [[2, 1], [0, 2]], 2, 4)
        assert not span_equal([[2, 1]], [[2, 0]], 2, 4)


class TestCyclicBasis:
    def test_cyclic_span_is_not_split(self):
        # the span of (2, 1) in (Z/4)^2 is one cyclic group of order 4
        rows = cyclic_basis([[2, 1]], 2, 4)
        assert len(rows) == 1
        assert additive_order(rows[0], 4) == 4

    def test_orders_multiply_to_span_size(self):
        rng = random.Random(2)
        for _ in range(20):
            p, cap = rng.choice(((2, 3), (3, 2)))
            big = p ** cap
            rows = [[rng.randrange(big) for _ in range(3)]
                    for _ in range(rng.randint(1, 3))]
            span = brute_span(rows, big)
            basis = cyclic_basis(rows, p, big)
            size = 1
            for row in basis:
                size *= additive_order(row, big)
            assert size == len(span)
            for row in basis:
                assert row in (list(v) for v in span)

    def test_pivot_order_is_rows_then_columns(self):
        # the least valuation ties between (row 0, col 1) and (row 1, col 0);
        # scanning rows first takes the former, which fixes the basis rows
        # that Subring bases and restrict reports are built from
        assert cyclic_basis([[0, 2], [1, 1]], 3, 9) == [[1, 0], [0, 1]]

    def test_rows_generate_the_span(self):
        rng = random.Random(3)
        for _ in range(10):
            big = 9
            rows = [[rng.randrange(big) for _ in range(2)]
                    for _ in range(2)]
            basis = cyclic_basis(rows, 3, big)
            assert span_equal(rows, basis, 3, big)


class TestSolveMod:
    def test_recovers_planted_solutions(self):
        rng = random.Random(4)
        for _ in range(25):
            p, cap = rng.choice(((2, 3), (3, 2), (5, 2)))
            big = p ** cap
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            columns = [[rng.randrange(big) for _ in range(n)]
                       for _ in range(m)]
            planted = [rng.randrange(big) for _ in range(m)]
            target = [sum(columns[j][i] * planted[j] for j in range(m)) % big
                      for i in range(n)]
            sol = solve_mod(columns, target, p, big)
            assert sol is not None
            for i in range(n):
                acc = sum(sol[j] * columns[j][i] for j in range(m))
                assert acc % big == target[i]

    def test_pivot_order_fixes_the_solution(self):
        # 3 c_1 = 6 and 6 c_0 + 6 c_1 = 0 mod 9 has several solutions; the
        # rows-then-columns pivot order picks this one
        assert solve_mod([[0, 6], [3, 6]], [6, 0], 3, 9) == [1, 2]

    def test_unsolvable_returns_none(self):
        # 2x = 1 has no solution mod 4
        assert solve_mod([[2]], [1], 2, 4) is None

    def test_divisibility_routed_through_minimal_pivot(self):
        # columns (2, 0) and (1, 1): the unit pivot must be used first or
        # the target (1, 1) looks unreachable
        sol = solve_mod([[2, 0], [1, 1]], [1, 1], 2, 4)
        assert sol is not None
