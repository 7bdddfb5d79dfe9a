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

from orbitkit import cli
from orbitkit.errors import (IntegerHeadroomExceeded, JacobiViolation,
                             RegimeViolation)
from orbitkit.freelie import bch, lyndon_words, standard_bracketing
from orbitkit.liering import (LazardGroup, _reduce, jacobi_defects,
                              make_ring, uniform_quotient)
from orbitkit.oracle import _row_order, character_table
from orbitkit.padic import QpLieAlgebra

from conftest import heisenberg


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
