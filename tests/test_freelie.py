"""Free Lie algebra on two generators: Lyndon basis, CH series, valuations."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from orbitkit import freelie
from orbitkit.chsolver import ValuationRegime
from orbitkit.errors import PropertyFailed
from orbitkit.freelie import (DEGREE_CAP, INFINITY, LiePoly, basis_expansion,
                              bch, bracket, bracket_table, exp_ad_apply,
                              generator, lyndon_count, lyndon_words,
                              standard_bracketing, valuation_of, vp,
                              words_to_lyndon, _assoc_bch, _dynkin_bch,
                              _dynkin_bracket, _dynkin_word, _log_words)


def random_poly(rng, degree, span=3):
    """Small integer combination of Lyndon basis elements of one degree."""
    terms = {}
    for _ in range(span):
        idx = rng.randrange(lyndon_count(degree))
        key = (degree, idx)
        terms[key] = terms.get(key, Fraction(0)) + rng.randint(-3, 3)
    return LiePoly({k: v for k, v in terms.items() if v}, DEGREE_CAP)


class TestScalars:
    def test_vp_of_rationals(self):
        assert vp(Fraction(1, 12), 2) == -2
        assert vp(Fraction(9, 4), 3) == 2
        assert vp(Fraction(0), 5) == INFINITY

    def test_sqrt_p_has_half_integer_valuation(self):
        # the sqrt(p) regime holds s^2 = p and reads v_p(s) = 1/2
        regime = ValuationRegime.sqrtp(5)
        x = generator("x", 2)
        assert regime.valuation(x, 1) == Fraction(1, 2)
        assert regime.valuation(x, 2) == 1

    def test_fraction_arguments_are_kept(self):
        # a Fraction coefficient is held as it is; anything else becomes one
        q = Fraction(3, 4)
        poly = LiePoly({(1, 0): q, (1, 1): 3})
        assert poly.terms[(1, 0)] is q
        assert type(poly.terms[(1, 1)]) is Fraction
        assert poly.terms[(1, 1)] == 3


class TestLyndonBasis:
    # binary Lyndon word counts follow Witt's necklace formula
    WITT = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30}

    def test_counts_match_witt_formula(self):
        for degree, count in self.WITT.items():
            assert lyndon_count(degree) == count
            assert len(lyndon_words(degree)) == count

    def test_words_are_strictly_smaller_than_rotations(self):
        for degree in range(2, 7):
            for w in lyndon_words(degree):
                for k in range(1, len(w)):
                    assert w < w[k:] + w[:k]

    def test_standard_bracketing_splits_at_longest_lyndon_suffix(self):
        # (0,0,1,1) factors as (0)(0,1,1), giving [x, [[x,y], y]]
        assert standard_bracketing((0, 0, 1, 1)) == (0, ((0, 1), 1))

    def test_rewriting_basis_expansions_is_the_identity(self):
        for degree in range(1, 7):
            for idx in range(lyndon_count(degree)):
                back = words_to_lyndon(dict(basis_expansion(degree, idx)),
                                       degree)
                assert back == {idx: 1}

    def test_non_lie_input_is_rejected(self):
        with pytest.raises(ValueError):
            words_to_lyndon({(0, 0): 1}, 2)

    def test_bracket_table_antisymmetry(self):
        for d1 in (1, 2, 3):
            for d2 in (1, 2, 3):
                fwd = bracket_table(d1, d2)
                rev = bracket_table(d2, d1)
                for i in range(lyndon_count(d1)):
                    for j in range(lyndon_count(d2)):
                        if d1 == d2 and i == j:
                            continue
                        a = dict(fwd.get((i, j), ()))
                        b = dict(rev.get((j, i), ()))
                        assert a == {k: -c for k, c in b.items()}


class TestBracketAlgebra:
    def test_self_bracket_vanishes(self):
        rng = random.Random(1)
        for _ in range(20):
            a = random_poly(rng, rng.randint(1, 3))
            assert not bracket(a, a)

    def test_jacobi_identity(self):
        rng = random.Random(2)
        for _ in range(20):
            a = random_poly(rng, rng.randint(1, 2))
            b = random_poly(rng, rng.randint(1, 2))
            c = random_poly(rng, rng.randint(1, 2))
            total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                     + bracket(c, bracket(a, b)))
            assert not total

    def test_bilinearity(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_poly(rng, 2)
            b = random_poly(rng, 2)
            c = random_poly(rng, 2)
            assert bracket(a + b, c) == bracket(a, c) + bracket(b, c)

    def test_truncation_drops_high_degrees(self):
        x, y = generator("x", 2), generator("y", 2)
        assert not bracket(bracket(x, y), y)


class TestCHSeries:
    def test_low_degree_components(self):
        series = bch(4)
        x, y = generator("x", 4), generator("y", 4)
        assert series.component(1) == x + y
        assert series.component(2) == bracket(x, y) * Fraction(1, 2)
        assert str(series.component(2)) == "(1/2)*[x,y]"
        deg3 = (bracket(x, bracket(x, y)) + bracket(bracket(x, y), y)) \
            * Fraction(1, 12)
        assert series.component(3) == deg3
        assert series.component(4) == \
            bracket(x, bracket(bracket(x, y), y)) * Fraction(1, 24)

    def test_both_routes_agree_to_the_cap(self):
        series = bch(DEGREE_CAP)
        dynkin = _dynkin_bch(DEGREE_CAP)
        for n in range(1, DEGREE_CAP + 1):
            assert series.component(n) == dynkin[n]

    def test_valuation_certificate(self):
        series = bch(DEGREE_CAP)
        for p in (2, 3, 5, 7):
            for n in range(1, DEGREE_CAP + 1):
                v = valuation_of(series.component(n), p)
                assert v >= -Fraction(n - 1, p - 1)

    def test_disagreeing_routes_raise_property_failed(self, monkeypatch):
        real = freelie._dynkin_bch

        def skewed(n_max):
            comps = real(n_max)
            comps[3] = comps[3] * 2
            return comps

        monkeypatch.setattr(freelie, "_dynkin_bch", skewed)
        bch.cache_clear()
        try:
            with pytest.raises(PropertyFailed,
                               match="CH routes disagree at degree 3"):
                bch(4)
        finally:
            bch.cache_clear()

    def test_skewed_associative_route_raises_property_failed(self,
                                                             monkeypatch):
        # the counterpart: the comparison reads the route bch returns too
        real = freelie._assoc_bch

        def skewed(n_max):
            comps = real(n_max)
            comps[3] = comps[3] * 2
            return comps

        monkeypatch.setattr(freelie, "_assoc_bch", skewed)
        bch.cache_clear()
        try:
            with pytest.raises(PropertyFailed,
                               match="CH routes disagree at degree 3"):
                bch(3)
        finally:
            bch.cache_clear()

    def test_degree_two_valuations(self):
        half = bch(2).component(2)
        assert valuation_of(half, 2) == -1
        assert valuation_of(half, 3) == 0
        assert valuation_of(LiePoly.zero(), 3) == INFINITY


# -- Fraction references for the integer CH routes ---------------------------

def ref_word_mul(a, b, cap):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) <= cap:
                out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return out


def ref_assoc_log(n_max):
    """log(exp x exp y) by degree: sum_m (-1)^(m+1) Z^m / m over Fractions."""
    z = {(0,) * a + (1,) * b: Fraction(1, math.factorial(a) * math.factorial(b))
         for a in range(n_max + 1) for b in range(n_max - a + 1) if a + b}
    acc = {}
    zpow = {(): Fraction(1)}
    for m in range(1, n_max + 1):
        zpow = ref_word_mul(zpow, z, n_max)
        for w, c in zpow.items():
            acc[w] = acc.get(w, 0) + Fraction((-1) ** (m + 1), m) * c
    split = [{} for _ in range(n_max + 1)]
    for w, c in acc.items():
        if c:
            split[len(w)][w] = c
    return split


def ref_dynkin_coeff(word):
    """sum of (-1)^(t-1)/(t n prod a_i! b_i!) over the splittings of the
    word into t blocks x^a y^b, a + b >= 1, by dynamic programming."""
    n = len(word)
    seg = {}
    for j in range(n):
        for i in range(j + 1, n + 1):
            block = word[j:i]
            a = 0
            while a < len(block) and block[a] == 0:
                a += 1
            if 0 not in block[a:]:
                seg[(j, i)] = Fraction(1, math.factorial(a)
                                       * math.factorial(len(block) - a))
    table = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    table[0][0] = Fraction(1)
    for i in range(1, n + 1):
        for t in range(1, i + 1):
            table[i][t] = sum((table[j][t - 1] * seg[(j, i)]
                               for j in range(i) if (j, i) in seg),
                              Fraction(0))
    return sum((Fraction((-1) ** (t - 1), t * n) * table[n][t]
                for t in range(1, n + 1)), Fraction(0))


def ref_right_normed(word):
    n = len(word)
    out = generator("xy"[word[-1]], n)
    for letter in reversed(word[:-1]):
        out = bracket(generator("xy"[letter], n), out, n)
    return out


class TestIntegerCHRoutes:
    """Term by term, the scaled integers equal the Fraction references."""

    def test_log_words_match_fraction_logarithm(self):
        n_max = 6
        lcm = math.lcm(*range(1, n_max + 1))
        ref = ref_assoc_log(n_max)
        scaled = _log_words(n_max, lcm)
        for n in range(1, n_max + 1):
            den = math.factorial(n) * lcm
            assert {w: Fraction(c, den) for w, c in scaled[n].items()} \
                == ref[n]

    def test_dynkin_word_matches_fraction_coefficient(self):
        lcm = math.lcm(*range(1, 8))
        for n in range(1, 8):
            den = n * math.factorial(n) * lcm
            for word in product((0, 1), repeat=n):
                assert Fraction(_dynkin_word(word, lcm), den) == \
                    ref_dynkin_coeff(word)

    def test_dynkin_bracket_matches_nested_brackets(self):
        for n in range(1, 7):
            for word in product((0, 1), repeat=n):
                terms = {(n, k): c for k, c in _dynkin_bracket(word)}
                assert LiePoly(terms, n) == ref_right_normed(word)

    def test_series_is_pinned(self):
        # independent of both routes: counts and digest of the exact series
        series = bch(8)
        assert [len(series.component(n).terms) for n in range(1, 9)] == \
            [2, 1, 2, 1, 6, 5, 18, 17]
        lines = [f"{d} {k} {c}" for (d, k), c in sorted(series.terms.items())]
        assert len(lines) == 52
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "6044daf67aa99e8e057c0ed070b6a1d5bce2150b4cbe2a60b6bc05dd4d9b736e"


class TestExpAd:
    def test_zero_series_is_the_identity(self):
        out = exp_ad_apply(LiePoly.zero(4), "x", 4)
        assert out == generator("x", 4)

    def test_low_degree_expansion(self):
        x, y = generator("x", 3), generator("y", 3)
        out = exp_ad_apply(y, "x", 3)
        assert out.component(1) == x
        assert out.component(2) == bracket(y, x)
        assert out.component(3) == bracket(y, bracket(y, x)) * Fraction(1, 2)

