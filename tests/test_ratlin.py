"""Exact rational solving and the p-local Hermite normal form."""

import random
from fractions import Fraction

import pytest

from orbitkit.freelie import vp
from orbitkit.ratlin import (in_p_lattice, p_local_hermite,
                             rational_span_basis, solve_right)


def random_fraction(rng, scale=6):
    return Fraction(rng.randint(-scale, scale), rng.randint(1, scale))


def p_rich_fraction(rng):
    """A small rational whose numerator and denominator often carry 2, 3
    or 5, so the p-adic valuations of entries differ."""
    num = rng.choice((0, 1, -1, 2, 3, -3, 5, 6, 9, -10, 25, 27))
    return Fraction(num, rng.choice((1, 2, 3, 4, 5, 9, 25)))


def p_minimal_solve(matrix, rhs, p):
    """solve_right with the pivot row of each column taken as the unused row
    of minimal p-adic valuation there (ties to the earliest row).  Returns
    (solution or None, whether some pivot row differs from the first
    nonzero one)."""
    m = len(matrix)
    cols = len(matrix[0]) if m else 0
    rows = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
            for i, row in enumerate(matrix)]
    pivot_of_col, used, differs = {}, set(), False
    for j in range(cols):
        candidates = [i for i in range(m) if i not in used and rows[i][j]]
        if not candidates:
            continue
        pivot = min(candidates, key=lambda i: (vp(rows[i][j], p), i))
        differs |= pivot != candidates[0]
        used.add(pivot)
        pivot_of_col[j] = pivot
        inv = 1 / rows[pivot][j]
        rows[pivot] = [v * inv for v in rows[pivot]]
        for i in range(m):
            if i != pivot and rows[i][j]:
                f = rows[i][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pivot])]
    if any(rows[i][cols] for i in range(m) if i not in used):
        return None, differs
    sol = [Fraction(0)] * cols
    for j, i in pivot_of_col.items():
        sol[j] = rows[i][cols]
    return sol, differs


class TestSolveRight:
    def test_recovers_a_planted_solution(self):
        rng = random.Random(0)
        for _ in range(25):
            n = rng.randint(1, 4)
            matrix = [[random_fraction(rng) for _ in range(n)]
                      for _ in range(n)]
            planted = [random_fraction(rng) for _ in range(n)]
            rhs = [sum(matrix[i][j] * planted[j] for j in range(n))
                   for i in range(n)]
            sol = solve_right(matrix, rhs)
            assert sol is not None
            residual = [sum(matrix[i][j] * sol[j] for j in range(n)) - rhs[i]
                        for i in range(n)]
            assert not any(residual)

    def test_inconsistent_system_returns_none(self):
        assert solve_right([[1, 1], [1, 1]], [0, 1]) is None

    def test_underdetermined_sets_free_variables_to_zero(self):
        sol = solve_right([[1, 1]], [5])
        assert sol == [5, 0]

    def test_p_pivoting_keeps_solutions_p_integral(self):
        # the system's one solution is 3-integral although a column is not
        matrix = [[Fraction(1, 3), 1], [0, 1]]
        sol = solve_right(matrix, [1, 1])
        assert sol == [0, 1]
        assert all(vp(c, 3) >= 0 for c in sol)

    def test_pivot_rows_do_not_change_the_solution(self):
        # the p-minimal pivot row rule gives the same solution, or None
        rng = random.Random(4)
        systems = []
        for rows, cols in ((3, 3), (2, 4), (4, 2), (3, 5), (5, 3)):
            for _ in range(8):
                dense = [[p_rich_fraction(rng) for _ in range(cols)]
                         for _ in range(rows)]
                rank = rng.randint(1, min(rows, cols) - 1)
                left = [[p_rich_fraction(rng) for _ in range(rank)]
                        for _ in range(rows)]
                right = [[p_rich_fraction(rng) for _ in range(cols)]
                         for _ in range(rank)]
                deficient = [[sum(left[i][k] * right[k][j]
                                  for k in range(rank))
                              for j in range(cols)] for i in range(rows)]
                planted = [p_rich_fraction(rng) for _ in range(cols)]
                reachable = [sum(a * b for a, b in zip(row, planted))
                             for row in deficient]
                generic = [p_rich_fraction(rng) for _ in range(rows)]
                systems += [(dense, generic), (deficient, reachable),
                            (deficient, generic)]
        outcomes, moved = set(), 0
        for matrix, rhs in systems:
            want = solve_right(matrix, rhs)
            outcomes.add(want is None)
            for p in (2, 3, 5):
                got, differs = p_minimal_solve(matrix, rhs, p)
                assert got == want
                moved += differs
        # consistent and inconsistent systems, and pivot rows that move
        assert outcomes == {True, False}
        assert moved


class TestRationalSpanBasis:
    def test_rank_and_membership(self):
        rng = random.Random(1)
        for _ in range(15):
            vecs = [[random_fraction(rng) for _ in range(4)]
                    for _ in range(rng.randint(1, 5))]
            basis = rational_span_basis(vecs)
            # every generator must solve against the basis
            for v in vecs:
                matrix = [[b[i] for b in basis] for i in range(4)]
                assert not any(v) or solve_right(matrix, v) is not None

    def test_canonical_under_generator_shuffles(self):
        vecs = [[1, 2, 3], [0, 1, 1], [1, 3, 4]]
        basis = rational_span_basis(vecs)
        assert basis == rational_span_basis(list(reversed(vecs)))
        assert len(basis) == 2


class TestPLocalHermite:
    def test_known_two_dimensional_example(self):
        basis = p_local_hermite([[1, 0], [0, 1], [Fraction(1, 3), 0]], 3)
        assert basis == [[Fraction(1, 3), 0], [0, 1]]

    def test_diagonal_entries_are_p_powers(self):
        rng = random.Random(2)
        for _ in range(15):
            n = rng.randint(1, 4)
            cols = [[random_fraction(rng) for _ in range(n)]
                    for _ in range(n + 1)]
            basis = p_local_hermite(cols, 5)
            for col in basis:
                lead = next(i for i, x in enumerate(col) if x)
                v = vp(col[lead], 5)
                assert Fraction(5) ** int(v) == col[lead]
                # entries below a pivot are reduced modulo it
            for j, col in enumerate(basis):
                for other in basis[:j]:
                    lead = next(i for i, x in enumerate(col) if x)
                    if other[lead]:
                        assert vp(other[lead], 5) < vp(col[lead], 5)

    def test_canonical_and_span_preserving(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(1, 3)
            cols = [[random_fraction(rng) for _ in range(n)]
                    for _ in range(n + rng.randint(0, 2))]
            if not any(any(c) for c in cols):
                continue
            basis = p_local_hermite(cols, 3)
            again = p_local_hermite(basis, 3)
            assert again == basis
            shuffled = list(cols)
            rng.shuffle(shuffled)
            assert p_local_hermite(shuffled, 3) == basis
            for c in cols:
                assert in_p_lattice(c, basis, 3)
            # adjoining the basis must not grow the lattice of the columns
            assert p_local_hermite(list(cols) + list(basis), 3) == basis


class TestInPLattice:
    def test_standard_lattice_is_p_free_denominators(self):
        e = [[1, 0], [0, 1]]
        assert in_p_lattice([Fraction(1, 2), 7], e, 3)
        assert not in_p_lattice([Fraction(1, 3), 0], e, 3)

    def test_empty_basis_contains_only_zero(self):
        assert in_p_lattice([0, 0], [], 5)
        assert not in_p_lattice([1, 0], [], 5)

    def test_dependent_basis_is_refused(self):
        # 3 = 3 * 1 over Q: the second column depends on the first, which
        # once gave False for the vector 1; a zero column depends on none,
        # and the refusal comes whether or not the vector lies in the span
        cases = [([1], [[3], [1]], 1), ([1, 0], [[0, 0]], 0),
                 ([0, 1], [[1, 0], [2, 0], [0, 1]], 1),
                 ([1, 0], [[1, 0], [0, 1], [1, 1]], 2)]
        for vector, basis, column in cases:
            with pytest.raises(ValueError) as info:
                in_p_lattice(vector, basis, 3)
            assert str(info.value) == \
                f"basis column {column} depends on earlier ones"


def residual_in_p_lattice(vector, basis_columns, p):
    """in_p_lattice with the residual pass it once ran: solve_right's
    combination counts only when it gives back the vector exactly.  Also
    returns whether that pass ever rejected a combination."""
    if not basis_columns:
        return not any(vector), False
    matrix = [[basis_columns[j][i] for j in range(len(basis_columns))]
              for i in range(len(vector))]
    sol = solve_right(matrix, list(vector))
    if sol is None:
        return False, False
    residual = list(map(Fraction, vector))
    for j, c in enumerate(sol):
        for i in range(len(residual)):
            residual[i] -= c * Fraction(basis_columns[j][i])
    if any(residual):
        return False, True
    return all(vp(c, p) >= 0 for c in sol), False


def combination(rng, vectors, bound):
    """A combination of the vectors with integer coefficients drawn from
    -bound..bound."""
    coeffs = [rng.randint(-bound, bound) for _ in vectors]
    return [sum(c * v[i] for c, v in zip(coeffs, vectors))
            for i in range(len(vectors[0]))]


class TestInPLatticeAgainstResidualPass:
    def test_drawn_rank_deficient_bases(self):
        # k columns spanning rank < k in Q^n are refused, naming the first
        # column in the span of the ones before it.  The independent
        # columns, in order, decide as the residual pass does: vectors
        # outside the span, and inside it with p-integral and with 1/p
        # coefficients
        rng = random.Random(35)
        seen = set()
        for trial in range(60):
            p = rng.choice((2, 3, 5))
            n = rng.randint(2, 4)
            rank = rng.randint(1, n - 1)
            free = [[p_rich_fraction(rng) for _ in range(n)]
                    for _ in range(rank)]
            if len(rational_span_basis(free)) < rank:
                continue
            basis = free + [combination(rng, free, 2)
                            for _ in range(rng.randint(1, 2))]
            rng.shuffle(basis)
            ranks = [len(rational_span_basis(basis[:j]))
                     for j in range(len(basis) + 1)]
            grows = [j for j in range(len(basis)) if ranks[j + 1] > ranks[j]]
            first = min(set(range(len(basis))) - set(grows))
            independent = [basis[j] for j in grows]
            scale = rng.choice((1, Fraction(1, p)))
            inside = [scale * x for x in combination(rng, basis, 3)]
            outside = [x + p_rich_fraction(rng) for x in inside]
            for vector in (inside, outside):
                with pytest.raises(ValueError) as info:
                    in_p_lattice(vector, basis, p)
                assert str(info.value) == \
                    f"basis column {first} depends on earlier ones"
                spans = len(rational_span_basis(free + [vector])) == rank
                want, rejected = residual_in_p_lattice(vector, independent, p)
                assert not rejected
                assert in_p_lattice(vector, independent, p) == want
                seen.add((spans, want))
        assert seen == {(True, True), (True, False), (False, False)}
