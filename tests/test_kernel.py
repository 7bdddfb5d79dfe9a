"""The structure-constant kernel against a pure-Python reference.

The reference brackets in exact Python integers or Fractions straight from
the constants dict a ring was built from (or from its exact lifts in the
uniform regime), evaluates whole Lie series exactly and reduces only at the
end.  It never touches the ring's own table, moduli or plans.
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given

from orbitkit import cli
from orbitkit.chsolver import (ValuationRegime, solve_phi_psi,
                               substituted_series)
from orbitkit.errors import (EvaluationNotIntegral, IntegerHeadroomExceeded,
                             JacobiViolation, RegimeViolation)
from orbitkit.freelie import (GradedSeries, LiePoly, bch, lyndon_words,
                              standard_bracketing)
from orbitkit.liering import (LazardGroup, _coordinate_major, _plan_steps,
                              _poly_terms, _reduce, _row_major, _series_terms,
                              jacobi_defects, make_ring, uniform_quotient)
from orbitkit.oracle import _conjugation_perm, _row_order, character_table
from orbitkit.padic import QpLieAlgebra

from conftest import heisenberg, upper_unitriangular4
from test_orbitmethod import small_rings


# -- the reference ---------------------------------------------------------------

def ref_bracket(constants, u, v):
    out = [0] * len(u)
    for (i, j), row in constants.items():
        coef = u[i] * v[j] - u[j] * v[i]
        for m, c in row.items():
            out[m] += coef * c
    return out


def ref_tree(constants, tree, u, v):
    if tree == 0:
        return list(u)
    if tree == 1:
        return list(v)
    return ref_bracket(constants, ref_tree(constants, tree[0], u, v),
                       ref_tree(constants, tree[1], u, v))


def ref_reduce(ring, vector):
    out = []
    for x, size in zip(vector, ring.sizes):
        x = Fraction(x)
        out.append(x.numerator * pow(x.denominator, -1, size) % size)
    return tuple(out)


class Reference:
    """CH, e^(ad w) and conjugation from exact constants, reduced last."""

    def __init__(self, ring, exact):
        self.ring = ring
        self.exact = exact
        series = bch(ring.ch_truncation)
        self.ch_terms = []
        for n in range(1, ring.ch_truncation + 1):
            for (degree, index), c in series.component(n).terms.items():
                word = lyndon_words(degree)[index]
                self.ch_terms.append((standard_bracketing(word), c.rat))
        self.ad_limit = (ring.ch_truncation - 1 if ring.uniform
                         else max(ring.class_ - 1, 0))

    def bracket(self, u, v):
        return ref_reduce(self.ring, ref_bracket(self.exact, u, v))

    def ch_exact(self, u, v):
        total = [Fraction(0)] * len(u)
        for tree, q in self.ch_terms:
            total = [t + q * x for t, x in
                     zip(total, ref_tree(self.exact, tree, u, v))]
        return total

    def ch(self, u, v):
        return ref_reduce(self.ring, self.ch_exact(u, v))

    def exp_ad(self, w, x):
        cur = list(x)
        total = [Fraction(c) for c in x]
        for k in range(1, self.ad_limit + 1):
            cur = ref_bracket(self.exact, w, cur)
            total = [t + Fraction(c, math.factorial(k))
                     for t, c in zip(total, cur)]
        return ref_reduce(self.ring, total)

    def exp_ad_matrix(self, w):
        d = self.ring.rank
        cols = [self.exp_ad(w, [int(i == j) for i in range(d)])
                for j in range(d)]
        return np.array(cols, dtype=np.int64).T.reshape(d, d)

    def conjugate(self, g, x):
        neg = [-c for c in g]
        return ref_reduce(self.ring,
                          self.ch_exact(self.ch_exact(g, x), neg))


# -- rings ---------------------------------------------------------------------

def class2_ring(seed):
    """Seeded class-2 ring: brackets of the top coordinates land in the
    central ones, so every double bracket vanishes."""
    rng = random.Random(seed)
    p = rng.choice((3, 5))
    k = rng.choice((1, 2))
    top = rng.choice((2, 3))
    centre = rng.choice((1, 2))
    rank = top + centre
    brackets = {}
    for i in range(top):
        for j in range(i + 1, top):
            row = {m: rng.randrange(p ** k) for m in range(top, rank)}
            brackets[(i, j)] = row
    return make_ring(p, (k,) * rank, brackets, label=f"class2[{seed}]")


FILIFORM_Q = {(0, 1): {2: Fraction(3, 2)}, (0, 2): {3: Fraction(-3, 4)}}
# 3·n_4: its canonical residues mod 9 break Jacobi over Z, so only the exact
# lifts evaluate CH correctly
N4_Q = {(0, 1): {3: 3}, (1, 2): {4: 3}, (0, 4): {5: 3}, (2, 3): {5: -3}}


def _rings():
    out = []
    for p, k in ((3, 2), (5, 2), (7, 1)):
        ring = heisenberg(p, k)
        out.append((ring.label, ring, ring.constants))
    fil = make_ring(5, (1,) * 4, {(0, 1): {2: 1}, (0, 2): {3: 1}},
                    label="filiform-F5")
    out.append(("filiform-F5", fil, fil.constants))
    z8 = make_ring(2, (3,) * 3, {(0, 1): {2: 4}}, label="rank3_z8")
    out.append(("rank3_z8", z8, z8.constants))
    quo = uniform_quotient(3, 4, FILIFORM_Q, 2, label="filiform-Q3/9")
    out.append(("filiform-Q3/9", quo, FILIFORM_Q))
    quo = uniform_quotient(3, 6, N4_Q, 2, label="3n4-Q3/9")
    out.append(("3n4-Q3/9", quo, N4_Q))
    # unequal moduli: each coordinate row reduces by its own modulus
    for label, moduli, brackets in (
            ("mixed-3^(2,1,1)", (2, 1, 1), {(1, 2): {0: 3}}),
            ("mixed-3^(3,2,2)", (3, 2, 2), {(0, 1): {2: 1}})):
        ring = make_ring(3, moduli, brackets, label=label)
        out.append((label, ring, ring.constants))
    for seed in range(4):
        ring = class2_ring(seed)
        out.append((ring.label, ring, ring.constants))
    u4 = upper_unitriangular4(5)
    out.append(("U4(F5)", u4, u4.constants))
    return out


RINGS = _rings()


def samples(ring, n, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, s, n) for s in ring.sizes],
                    axis=-1).astype(np.int64)


def as_tuples(batch):
    return [tuple(int(x) for x in row) for row in batch]


@pytest.fixture(params=RINGS, ids=[r[0] for r in RINGS])
def case(request):
    _, ring, exact = request.param
    return ring, Reference(ring, exact)


class TestAgainstReference:
    def test_regimes_are_covered(self):
        regimes = {ring.uniform for _, ring, _ in RINGS}
        assert regimes == {False, True}
        assert any(len(set(ring.moduli)) > 1 for _, ring, _ in RINGS)

    def test_bracket_batch(self, case):
        ring, ref = case
        U, V = samples(ring, 40, 1), samples(ring, 40, 2)
        got = as_tuples(ring.bracket_batch(U, V))
        assert got == [ref.bracket(u, v)
                       for u, v in zip(as_tuples(U), as_tuples(V))]

    def test_single_vectors(self, case):
        ring, ref = case
        for u, v in zip(as_tuples(samples(ring, 5, 3)),
                        as_tuples(samples(ring, 5, 4))):
            assert ring.bracket(u, v) == ref.bracket(u, v)
            assert ring.ch_multiply(u, v) == ref.ch(u, v)
            assert tuple(int(x) for x in ring.exp_ad_batch(u, v)) \
                == ref.exp_ad(u, v)

    def test_ch_batch(self, case):
        ring, ref = case
        U, V = samples(ring, 40, 5), samples(ring, 40, 6)
        got = as_tuples(ring.ch_batch(U, V))
        assert got == [ref.ch(u, v)
                       for u, v in zip(as_tuples(U), as_tuples(V))]

    def test_unreduced_inputs(self, case):
        ring, ref = case
        U, V = samples(ring, 20, 7), samples(ring, 20, 8)
        shift = np.array(ring.sizes, dtype=np.int64)
        assert np.array_equal(ring.ch_batch(U - shift, V + 3 * shift),
                              ring.ch_batch(U, V))

    def test_exp_ad_batch(self, case):
        ring, ref = case
        W, X = samples(ring, 30, 9), samples(ring, 30, 10)
        got = as_tuples(ring.exp_ad_batch(W, X))
        assert got == [ref.exp_ad(w, x)
                       for w, x in zip(as_tuples(W), as_tuples(X))]

    def test_exp_ad_matrix(self, case):
        ring, ref = case
        for w in as_tuples(samples(ring, 6, 11)):
            got = ring.exp_ad_matrix(w)
            assert got.flags.c_contiguous
            assert np.array_equal(got, ref.exp_ad_matrix(w))

    def test_ad_matrix(self, case):
        # ad(w) from one bracket of w against the basis batch
        ring, ref = case
        eye = np.eye(ring.rank, dtype=np.int64)
        for w in as_tuples(samples(ring, 4, 12)):
            cols = [ref.bracket(w, ring.basis(j)) for j in range(ring.rank)]
            assert np.array_equal(ring.bracket_batch(w, eye).T,
                                  np.array(cols, dtype=np.int64).T)

    def test_broadcast_inputs(self, case):
        ring, ref = case
        X = samples(ring, 25, 13)
        g = as_tuples(samples(ring, 1, 14))[0]
        G = np.broadcast_to(np.array(g, dtype=np.int64), X.shape)
        assert as_tuples(ring.ch_batch(G, X)) == \
            [ref.ch(g, x) for x in as_tuples(X)]
        assert as_tuples(ring.ch_batch(X, G)) == \
            [ref.ch(x, g) for x in as_tuples(X)]
        assert as_tuples(ring.exp_ad_batch(G, X)) == \
            [ref.exp_ad(g, x) for x in as_tuples(X)]

    def test_outer_broadcast(self, case):
        # (h, 1, rank) against (1, c, rank): the product of every pair
        ring, ref = case
        H, C = samples(ring, 4, 17), samples(ring, 5, 18)
        got = ring.ch_batch(H[:, None], C[None])
        assert got.shape == (4, 5, ring.rank)
        assert [as_tuples(row) for row in got] == \
            [[ref.ch(h, c) for c in as_tuples(C)] for h in as_tuples(H)]

    def test_conjugate_batch(self, case):
        ring, ref = case
        group = LazardGroup(ring)
        X = samples(ring, 25, 15)
        for g in as_tuples(samples(ring, 3, 16)):
            got = as_tuples(group.conjugate_batch(g, X))
            assert got == [ref.conjugate(g, x) for x in as_tuples(X)]


# -- the dense kernel the support-pruned plans replaced ------------------------

class Dense:
    """CH, Lie series and e^(ad W) as the kernel ran before plans carried
    row supports: every bracket forms every pair of the ring's table into
    every target row, and every term is scaled and added on all rows.

    The values of each bracketing word (and of each e^(ad W) step) come
    back as full coordinate-major arrays, so tests can check that they
    vanish outside the plan's static supports.
    """

    def __init__(self, ring):
        self.ring = ring

    def bracket(self, U, V, batch):
        ring = self.ring
        out = np.zeros((ring.rank,) + batch, dtype=np.int64)
        reached = set()
        for i, j, _, targets in ring._table:
            D = U[i] * V[j] - U[j] * V[i]
            for m, c in targets:
                out[m] += c * D
                reached.add(m)
        return _reduce(out, ring._work, rows=reached)

    def scaled(self, vals, coefficient):
        ring = self.ring
        q, a, mult = coefficient
        if a:
            if ring.uniform and a > ring._shift:
                raise EvaluationNotIntegral(
                    f"coefficient {q} needs p^{a} beyond working precision")
            quot = vals // ring.p ** a
            if not np.array_equal(quot * ring.p ** a, vals):
                raise EvaluationNotIntegral(
                    f"value not divisible by p^{a} for coefficient {q}")
            vals = quot
        if not isinstance(mult, int):
            mult = mult.reshape((-1,) + (1,) * (vals.ndim - 1))
        return vals * mult

    def words(self, terms, U, V):
        """(word values, terms' sum in canonical (..., rank) form)."""
        ring = self.ring
        U, V, shape, batch = _coordinate_major(U, V)
        values = {(0,): self.entry(U), (1,): self.entry(V)}
        for w, left, right in _plan_steps({w for w, _ in terms
                                           if len(w) > 1}):
            values[w] = self.bracket(values[left], values[right], batch)
        out = np.zeros((ring.rank,) + batch, dtype=np.int64)
        for w, q in terms:
            out += self.scaled(values[w], ring._coefficient(q))
        return values, _row_major(_reduce(out, ring._canon), shape)

    def entry(self, X):
        return _reduce(X, self.ring._work, np.empty(X.shape, np.int64))

    def ch_terms(self):
        series = bch(self.ring.ch_truncation)
        return [t for n in range(1, self.ring.ch_truncation + 1)
                for t in _poly_terms(series.component(n))]

    def exp_ad(self, W, X):
        """(the value of each e^(ad W) step, e^(ad W)X)."""
        ring = self.ring
        W, X, shape, batch = _coordinate_major(W, X)
        W, cur = self.entry(W), self.entry(X)
        out = np.zeros((ring.rank,) + batch, dtype=np.int64)
        out += cur
        steps = []
        for k in range(1, len(ring._exp_ad) + 1):
            cur = self.bracket(W, cur, batch)
            steps.append(cur)
            out += self.scaled(cur, ring._coefficient(
                Fraction(1, math.factorial(k))))
        return steps, _row_major(_reduce(out, ring._canon), shape)


def outcome(call, *args):
    """A call's result, or the EvaluationNotIntegral it raised, so that two
    paths can be compared on both."""
    try:
        return call(*args)
    except EvaluationNotIntegral as exc:
        return exc


def assert_zero_outside(ring, value, support):
    """A coordinate-major value vanishes off its support (None: all rows)."""
    if support is not None:
        assert not np.any(value[[m for m in range(ring.rank)
                                 if m not in support]]), support


def check_terms(ring, series, U, V):
    """evaluate_series_batch (or ch_batch for series None) against the
    dense path, and each word's dense value against its static support."""
    terms = (Dense(ring).ch_terms() if series is None
             else _series_terms(series))
    want = outcome(Dense(ring).words, terms, U, V)
    got = (ring.ch_batch(U, V) if series is None
           else outcome(ring.evaluate_series_batch, series, U, V))
    if isinstance(want, EvaluationNotIntegral):
        assert isinstance(got, EvaluationNotIntegral)
        assert str(got) == str(want)
        return
    values, want = want
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    steps, _, reached = ring._term_plan(terms)
    for w, _, _, _, support, _ in steps:
        assert_zero_outside(ring, values[w], support)
    assert_zero_outside(ring, np.moveaxis(want, -1, 0), reached)


def check_exp_ad(ring, W, X):
    steps, want = Dense(ring).exp_ad(W, X)
    got = ring.exp_ad_batch(W, X)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    for value, (_, support, _, _) in zip(steps, ring._exp_ad):
        assert_zero_outside(ring, value, support)


def twist_series(ring):
    """The twist pair's phi and psi; psi has no degree-1 term."""
    regime = ValuationRegime.generic(max(ring.p, 3))
    return solve_phi_psi(substituted_series(regime, 4), regime,
                         4).back_substituted()


def inputs(ring):
    """(U, V) pairs: single vectors, a vector against a batch, an outer
    broadcast and a plain batch."""
    A, B = samples(ring, 30, 21), samples(ring, 30, 22)
    return [(A[0], B[0]), (A[1], B), (A, B[2]), (A[:5, None], B[None, :6]),
            (A, B)]


class TestAgainstDense:
    def test_ch_batch(self, case):
        ring, _ = case
        for U, V in inputs(ring):
            check_terms(ring, None, U, V)

    def test_evaluate_series_batch(self, case):
        ring, _ = case
        for series in (bch(ring.ch_truncation),) + twist_series(ring):
            for U, V in inputs(ring):
                check_terms(ring, series, U, V)

    def test_exp_ad_batch(self, case):
        ring, _ = case
        for W, X in inputs(ring):
            check_exp_ad(ring, W, X)

    def test_a_twist_series_has_no_degree_one_term(self):
        # so the sum is reduced on the rows of its brackets only
        ring = heisenberg(3)
        _, psi = twist_series(ring)
        assert all(len(w) > 1 for w, _ in _series_terms(psi))
        assert ring._term_plan(_series_terms(psi))[2] == (2,)

    @given(ring=small_rings())
    def test_drawn_rings_vanish_outside_the_supports(self, ring):
        A, B = samples(ring, 50, 23), samples(ring, 50, 24)
        check_terms(ring, None, A, B)
        check_exp_ad(ring, A, B)


class TestEvaluationNotIntegral:
    def half_bracket(self, p, degree=2, power=1):
        """[x, y] / p^power as a one-term series."""
        return GradedSeries({2: LiePoly({(2, 0): Fraction(1, p ** power)},
                                        degree)}, degree)

    def test_value_not_divisible(self, z9):
        u = np.array([[1, 0, 0]], dtype=np.int64)
        v = np.array([[0, 1, 0]], dtype=np.int64)
        with pytest.raises(EvaluationNotIntegral,
                           match=r"value not divisible by p\^1"):
            z9.evaluate_series_batch(self.half_bracket(3), u, v)
        # divisible values pass: [3x, y] = 3z
        assert z9.evaluate_series_batch(self.half_bracket(3), 3 * u,
                                        v).tolist() == [[0, 0, 1]]

    def test_beyond_working_precision(self, rank3_z8):
        u = np.array([1, 0, 0], dtype=np.int64)
        with pytest.raises(EvaluationNotIntegral,
                           match=r"needs p\^9 beyond working precision"):
            rank3_z8.evaluate_series_batch(self.half_bracket(2, power=9),
                                           u, u)


class TestReduce:
    EDGES = [np.iinfo(np.int64).min, np.iinfo(np.int64).min + 1,
             -2 ** 62, -10, -1, 0, 1, 2 ** 62, np.iinfo(np.int64).max - 1,
             np.iinfo(np.int64).max]

    def values(self, rows, cols):
        rng = np.random.default_rng(19)
        X = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                         (rows, cols), dtype=np.int64, endpoint=True)
        X[:, :len(self.EDGES)] = self.EDGES
        X[:, len(self.EDGES):2 * len(self.EDGES)] = rng.integers(
            -50, 50, (rows, len(self.EDGES)))
        return X

    @pytest.mark.parametrize("modulus", [1, 2, 5, 9, 3 ** 20, 2 ** 62,
                                         np.iinfo(np.int64).max])
    def test_int_modulus_matches_np_mod(self, modulus):
        X = self.values(3, 200)
        want = np.mod(X, modulus)
        assert np.array_equal(_reduce(X.copy(), modulus), want)
        assert np.array_equal(_reduce(X.copy(), modulus, rows=range(3)), want)
        out = np.empty_like(X)
        assert _reduce(X, modulus, out) is out
        assert np.array_equal(out, want)

    def test_vector_modulus_matches_np_mod(self):
        moduli = (9, 3, 3 ** 20, 2 ** 61 + 1)
        X = self.values(len(moduli), 200)
        want = np.mod(X, np.array(moduli)[:, None])
        assert np.array_equal(_reduce(X.copy(), moduli), want)
        # only the given rows are reduced
        part = _reduce(X.copy(), moduli, rows={0, 2})
        assert np.array_equal(part[[0, 2]], want[[0, 2]])
        assert np.array_equal(part[[1, 3]], X[[1, 3]])


class TestRankZero:
    def test_kernel_on_the_trivial_ring(self):
        ring = make_ring(3, (), {})
        U = np.zeros((4, 0), dtype=np.int64)
        assert ring.bracket_batch(U, U).shape == (4, 0)
        assert ring.ch_batch(U, U).shape == (4, 0)
        assert ring.exp_ad_batch(U, U).shape == (4, 0)
        assert ring.exp_ad_matrix(()).shape == (0, 0)
        assert ring.ch_multiply((), ()) == ()
        group = LazardGroup(ring)
        assert group.conjugate_batch((), group.elements).shape == (1, 0)


# -- Jacobi --------------------------------------------------------------------

def ref_jacobi(rank, constants):
    out = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            for l in range(j + 1, rank):
                e = [[int(a == b) for b in range(rank)] for a in (i, j, l)]
                total = [0] * rank
                for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                    term = ref_bracket(constants,
                                       ref_bracket(constants, e[a], e[b]),
                                       e[c])
                    total = [x + y for x, y in zip(total, term)]
                out[(i, j, l)] = total
    return out


# 3·n_4 with the constant of [x3, x4] lifted to 6 instead of -3: Jacobi holds
# mod 27 but not over Z
N4_BAD = {(0, 1): {3: 3}, (1, 2): {4: 3}, (0, 4): {5: 3}, (2, 3): {5: 6}}
TRIANGLE = {(0, 1): {2: 1}, (0, 2): {0: 1}}


class TestJacobi:
    @pytest.mark.parametrize("seed", range(6))
    def test_defects_match_the_reference(self, seed):
        rng = random.Random(seed)
        rank = rng.choice((3, 4, 5))
        constants = {}
        for i in range(rank):
            for j in range(i + 1, rank):
                if rng.random() < 0.5:
                    constants[(i, j)] = {m: Fraction(rng.randrange(-4, 5),
                                                     rng.choice((1, 2, 3)))
                                         for m in rng.sample(range(rank), 2)}
        ref = ref_jacobi(rank, constants)
        exact = dict(jacobi_defects(rank, constants))
        assert exact == {t: d for t, d in ref.items() if any(d)}
        reduced = dict(jacobi_defects(
            rank, constants, lambda m, x: x.numerator % 5 * (m + 1)))
        assert reduced == {
            t: [x.numerator % 5 * (m + 1) for m, x in enumerate(d)]
            for t, d in ref.items()
            if any(x.numerator % 5 for x in d)}

    def test_every_site_keeps_its_error_and_witness(self):
        with pytest.raises(JacobiViolation,
                           match=r"basis triple \(0, 1, 2\): Jacobi sum "
                                 r"\[0, 0, 4\] != 0"):
            make_ring(5, (1, 1, 1), TRIANGLE)
        with pytest.raises(RegimeViolation,
                           match=r"Jacobi defect -27 at triple \(0, 1, 2\) "
                                 r"coordinate 5"):
            make_ring(3, (3,) * 6, N4_BAD)
        with pytest.raises(JacobiViolation,
                           match=r"Jacobi defect -27 at triple \(0, 1, 2\) "
                                 r"coordinate 5"):
            uniform_quotient(3, 6, N4_BAD, 2)
        with pytest.raises(JacobiViolation,
                           match=r"basis triple \(0,1,2\)"):
            QpLieAlgebra(5, 3, TRIANGLE)


# -- integer headroom ------------------------------------------------------------

def heis_3k(k):
    return make_ring(3, (k,) * 3, {(0, 1): {2: 1}})


def largest_admitted_k():
    k = 1
    while True:
        try:
            heis_3k(k + 1)
        except IntegerHeadroomExceeded:
            return k
        k += 1


class TestHeadroom:
    def test_k21_is_rejected_with_witness(self):
        with pytest.raises(IntegerHeadroomExceeded) as info:
            heis_3k(21)
        message = str(info.value)
        assert f"working modulus {3 ** 21}" in message
        bound = (3 ** 21 - 1) ** 2 * 3
        assert str(bound) in message

    def test_largest_admitted_k_matches_python_ints(self):
        k = largest_admitted_k()
        assert 10 <= k < 21
        ring = heis_3k(k)
        ref = Reference(ring, ring.constants)
        rng = random.Random(k)
        size = 3 ** k
        pairs = [(tuple(size - 1 - rng.randrange(9) for _ in range(3)),
                  tuple(size - 1 - rng.randrange(9) for _ in range(3)))]
        pairs += [(tuple(rng.randrange(size) for _ in range(3)),
                   tuple(rng.randrange(size) for _ in range(3)))
                  for _ in range(200)]
        for u, v in pairs:
            assert ring.ch_multiply(u, v) == ref.ch(u, v)
            assert ring.bracket(u, v) == ref.bracket(u, v)
        U = np.array([u for u, _ in pairs], dtype=np.int64)
        V = np.array([v for _, v in pairs], dtype=np.int64)
        assert as_tuples(ring.ch_batch(U, V)) == \
            [ref.ch(u, v) for u, v in pairs]
        assert as_tuples(ring.exp_ad_batch(U, V)) == \
            [ref.exp_ad(u, v) for u, v in pairs]

    def test_a_long_series_is_refused_at_the_edge(self):
        ring = heis_3k(largest_admitted_k())
        u = np.array([1, 2, 3], dtype=np.int64)
        ring.evaluate_series_batch(bch(2), u, u)
        with pytest.raises(IntegerHeadroomExceeded):
            ring.evaluate_series_batch(bch(8), u, u)

    def test_small_rings_are_admitted(self):
        for _, ring, _ in RINGS:
            assert ring._capacity > 10 ** 12

    def test_cli_exits_with_code_2(self, capsys, tmp_path):
        spec = tmp_path / "wide.json"
        spec.write_text(json.dumps(
            {"p": 3, "moduli": [21, 21, 21], "brackets": {"(1,2)": {"3": 1}}}))
        code = cli.main(["chartable", "--input", str(spec)])
        err = capsys.readouterr().err
        assert code == 2
        assert "IntegerHeadroomExceeded" in err


# -- conjugation permutations ------------------------------------------------------

@pytest.mark.parametrize("ring", [r[1] for r in RINGS],
                         ids=[r[0] for r in RINGS])
def test_conjugation_perm_equals_index_batch(ring):
    # conjugate_batch returns canonical residues, so the strides alone
    # index them
    group = LazardGroup(ring)
    rng = np.random.default_rng(ring.order())
    for g in [tuple(int(rng.integers(0, s)) for s in ring.sizes)
              for _ in range(3)] + [tuple(s - 1 for s in ring.sizes)]:
        images = group.conjugate_batch(g, group.elements)
        assert np.all((images >= 0) & (images < ring._mods))
        assert np.array_equal(_conjugation_perm(group, g),
                              group.index_batch(images))


# -- character-table row order ----------------------------------------------------

def old_order(degrees, rows):
    return sorted(range(len(rows)), key=lambda i: (
        degrees[i], tuple((round(z.real, 8), round(z.imag, 8))
                          for z in rows[i])))


@pytest.mark.parametrize("ring", [
    heisenberg(7),
    make_ring(5, (1,) * 4, {(0, 1): {2: 1}, (0, 2): {3: 1}}),
], ids=["H(F7)", "filiform-F5"])
def test_row_order_matches_the_eager_key(ring):
    table = character_table(LazardGroup(ring))
    degrees = table.degrees.astype(np.float64)
    rows = table.rows
    assert _row_order(degrees, rows) == old_order(degrees, rows)
    rng = np.random.default_rng(0)
    for _ in range(3):
        # shuffled rows with repeats, so ties and near-ties are exercised
        pick = rng.integers(0, len(rows), len(rows) + 12)
        noisy = rows[pick] + rng.choice([0.0, 1e-10, 4e-9], rows[pick].shape)
        assert _row_order(degrees[pick], noisy) == \
            old_order(degrees[pick], noisy)


def test_row_order_rounds_half_way_values_as_the_eager_key():
    # k/1e8 + 5e-9 lies on a rounding boundary, where Python's round on a
    # float and round on a numpy scalar (np.round) can part; rows that tie
    # under one rounding and not the other are then ordered by column 1
    rng = np.random.default_rng(5)
    x = rng.integers(-10 ** 8, 10 ** 8, 4000) / 1e8 + 5e-9
    split = [v for v in x if round(float(v), 8) != round(v, 8)][:6]
    first = [u for v in split for u in (v, round(float(v), 8), round(v, 8))]
    rows = np.column_stack([first, rng.standard_normal(len(first))])
    rows = (rows + 0j)[rng.permutation(len(first))]
    degrees = np.ones(len(rows))
    assert _row_order(degrees, rows) == old_order(degrees, rows)
    float_key = sorted(range(len(rows)), key=lambda i: tuple(
        round(float(z.real), 8) for z in rows[i]))
    assert float_key != old_order(degrees, rows)
