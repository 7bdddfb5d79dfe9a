"""Exact arithmetic in the free Lie algebra on two generators.

Elements live in the Lyndon basis: the standard bracketings of Lyndon words
on {x, y}.  Coefficients are Fractions, kept exact throughout, so p-adic
valuations of coefficients act as certificates rather than floating-point
estimates.

Brackets are normalized by embedding into the truncated free associative
algebra: the expansion of the standard bracketing of a Lyndon word w is w
plus lexicographically larger words, so a Lie element written in the word
basis rewrites into the Lyndon basis by repeatedly stripping its smallest
word.  The Campbell-Hausdorff series log(exp x exp y) is computed twice, by
the associative-logarithm route and by Dynkin's bracketing formula, and the
two expansions must agree coefficient for coefficient.  Both routes run over
Python integers with one denominator per degree (|w|!*L for a word w of the
logarithm, n*n!*L for a Dynkin coefficient of degree n, L = lcm(1..N) at
truncation order N) and divide only when a component becomes a LiePoly.
Every number here is a Python int or a Fraction, so there is no fixed-width
headroom to check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import PropertyFailed

#: default truncation order for series work; callers may exceed it explicitly
DEGREE_CAP = 8

INFINITY = math.inf


def is_prime(n: int) -> bool:
    """Trial division: the primes the commands and constructors accept."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _vp_int(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(q, p: int):
    """p-adic valuation of a rational number; math.inf for zero."""
    q = Fraction(q)
    if q == 0:
        return INFINITY
    return Fraction(_vp_int(q.numerator, p) - _vp_int(q.denominator, p))


# -- Lyndon words and their bracketings --------------------------------------

def _is_lyndon(w) -> bool:
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


@lru_cache(maxsize=None)
def lyndon_words(degree: int):
    """Lyndon words of the given length over {0, 1} (0 = x, 1 = y), in lex order."""
    if degree < 1:
        return ()
    return tuple(w for w in product((0, 1), repeat=degree) if _is_lyndon(w))


@lru_cache(maxsize=None)
def _lyndon_index(degree: int):
    return {w: i for i, w in enumerate(lyndon_words(degree))}


def lyndon_count(degree: int) -> int:
    return len(lyndon_words(degree))


@lru_cache(maxsize=None)
def standard_factorization(word):
    """(left, right) for a Lyndon word of length >= 2: the right factor is
    its longest proper Lyndon suffix.

    The one rule by which both the series basis (standard_bracketing) and
    the ring kernel's plans (liering._plan_steps) bracket a word.
    """
    for i in range(1, len(word)):
        if _is_lyndon(word[i:]):
            return word[:i], word[i:]
    raise ValueError(f"{word} is not a Lyndon word")


@lru_cache(maxsize=None)
def standard_bracketing(word):
    """Nested-tuple bracketing of a Lyndon word via its standard
    factorization; leaves are the letters 0 and 1."""
    if len(word) == 1:
        return word[0]
    left, right = standard_factorization(word)
    return (standard_bracketing(left), standard_bracketing(right))


def _commutator(left: dict, right: dict) -> dict:
    """ab - ba for two elements of the free associative algebra, each a
    {word: coefficient} dict; zero coefficients are dropped."""
    out: dict = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            c = c1 * c2
            out[w1 + w2] = out.get(w1 + w2, 0) + c
            out[w2 + w1] = out.get(w2 + w1, 0) - c
    return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def _tree_expansion(tree):
    """Expansion of a bracketing tree in the free associative algebra (int coeffs)."""
    if isinstance(tree, int):
        return {(tree,): 1}
    return _commutator(_tree_expansion(tree[0]), _tree_expansion(tree[1]))


@lru_cache(maxsize=None)
def basis_expansion(degree: int, index: int):
    return _tree_expansion(standard_bracketing(lyndon_words(degree)[index]))


def words_to_lyndon(poly: dict, degree: int) -> dict:
    """Rewrite a homogeneous Lie element from the word basis to the Lyndon basis.

    Relies on triangularity: the expansion of a Lyndon bracketing is its word
    plus lex-larger words.  Raises ValueError when the input is not a Lie
    element (the remainder's smallest word is not Lyndon, or nonzero remains).
    """
    index = _lyndon_index(degree)
    rem = {w: c for w, c in poly.items() if c}
    out = {}
    while rem:
        w = min(rem)
        if w not in index:
            raise ValueError(f"not a Lie element: leading word {w}")
        c = rem.pop(w)
        out[index[w]] = c
        for u, k in basis_expansion(degree, index[w]).items():
            if u == w:
                continue
            nc = rem.get(u, 0) - c * k
            if nc:
                rem[u] = nc
            else:
                rem.pop(u, None)
    return out


@lru_cache(maxsize=None)
def bracket_table(d1: int, d2: int):
    """Structure constants [b_i, b_j] for Lyndon basis elements of two degrees.

    Maps (i, j) to a tuple of (k, c) with integer c; the constants are
    integral because the Lyndon bracketings form a basis of the free Lie
    ring over Z.
    """
    table = {}
    for i in range(lyndon_count(d1)):
        ei = basis_expansion(d1, i)
        for j in range(lyndon_count(d2)):
            if d1 == d2 and i == j:
                continue
            res = words_to_lyndon(_commutator(ei, basis_expansion(d2, j)),
                                  d1 + d2)
            entry = tuple(sorted((k, c) for k, c in res.items() if c))
            if entry:
                table[(i, j)] = entry
    return table


# -- Lie polynomials ----------------------------------------------------------

class LiePoly:
    """A Lie element with coefficients on Lyndon bracketings.

    ``terms`` maps (degree, basis index) to a nonzero Fraction; anything of
    degree above ``max_degree`` is dropped at construction time, which is how
    truncation order propagates through arithmetic.  So a LiePoly is also a
    truncated Lie series (CH, phi, psi), read degree by degree through
    ``component``.  Equality compares the coefficient maps only.
    """

    __slots__ = ("terms", "max_degree")

    def __init__(self, terms=None, max_degree: int = DEGREE_CAP):
        data = {}
        for key, c in (terms or {}).items():
            # a Fraction is immutable, so one is kept rather than rebuilt
            if type(c) is not Fraction:
                c = Fraction(c)
            if key[0] <= max_degree and c:
                data[key] = c
        self.terms = data
        self.max_degree = max_degree

    @staticmethod
    def zero(max_degree: int = DEGREE_CAP) -> "LiePoly":
        return LiePoly({}, max_degree)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LiePoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, LiePoly):
            return NotImplemented
        n = min(self.max_degree, other.max_degree)
        data = dict(self.terms)
        for key, c in other.terms.items():
            s = data.get(key)
            data[key] = c if s is None else s + c
        return LiePoly(data, n)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LiePoly({k: -c for k, c in self.terms.items()}, self.max_degree)

    def __mul__(self, c):
        return LiePoly({k: s * c for k, s in self.terms.items()}, self.max_degree)

    __rmul__ = __mul__

    def with_max_degree(self, n: int) -> "LiePoly":
        return LiePoly(self.terms, n)

    def component(self, n: int) -> "LiePoly":
        """The degree-n terms, truncated at the same order."""
        return LiePoly({key: c for key, c in self.terms.items()
                        if key[0] == n}, self.max_degree)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (d, i) in sorted(self.terms):
            c = self.terms[(d, i)]
            name = render_basis(d, i)
            if c == 1:
                bits.append(name)
            elif c == -1:
                bits.append(f"-{name}")
            else:
                bits.append(f"({c})*{name}")
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


def generator(letter: str, max_degree: int = DEGREE_CAP) -> LiePoly:
    """The generator x or y as a LiePoly of the given truncation order."""
    idx = {"x": 0, "y": 1}[letter]
    return LiePoly({(1, idx): Fraction(1)}, max_degree)


def _render_tree(tree) -> str:
    if isinstance(tree, int):
        return "xy"[tree]
    return f"[{_render_tree(tree[0])},{_render_tree(tree[1])}]"


def render_basis(degree: int, index: int) -> str:
    return _render_tree(standard_bracketing(lyndon_words(degree)[index]))


def bracket(a: LiePoly, b: LiePoly, max_degree: int | None = None) -> LiePoly:
    """Lie bracket [a, b], truncated at the smaller operand order by default."""
    n = max_degree if max_degree is not None else min(a.max_degree, b.max_degree)
    acc: dict = {}
    for (d1, i1), s1 in a.terms.items():
        for (d2, i2), s2 in b.terms.items():
            d = d1 + d2
            if d > n:
                continue
            entry = bracket_table(d1, d2).get((i1, i2))
            if not entry:
                continue
            s = s1 * s2
            for k, c in entry:
                key = (d, k)
                cur = acc.get(key)
                add = s * c
                acc[key] = add if cur is None else cur + add
    return LiePoly(acc, n)


def valuation_of(h: LiePoly, p: int):
    """Minimum p-adic valuation over the coefficients of h; math.inf for 0."""
    return min((vp(c, p) for c in h.terms.values()), default=INFINITY)


# -- the Campbell-Hausdorff series -------------------------------------------

def _log_words(n_max: int, lcm: int) -> list:
    """log(exp x exp y) in the free associative algebra, split by degree.

    Entry n maps each word w of length n to n!*lcm times its coefficient,
    an integer when lcm is a multiple of lcm(1..n_max).  Scaled by |w|!,
    the block x^a y^b of Z = exp x exp y - 1 weighs C(a+b, a),
    concatenating words of lengths l1 and l2 multiplies by C(l1+l2, l1),
    and the term (-1)^(m+1) Z^m/m of the logarithm enters as +-(lcm/m) Z^m.
    """
    blocks = [{(0,) * a + (1,) * (k - a): math.comb(k, a)
               for a in range(k + 1)} for k in range(n_max + 1)]
    power = [{(): 1}] + [{} for _ in range(n_max)]    # Z^0, by length
    log = [{} for _ in range(n_max + 1)]
    for m in range(1, n_max + 1):
        nxt = [{} for _ in range(n_max + 1)]
        for l1, words in enumerate(power):
            for l2 in range(1, n_max - l1 + 1):
                out = nxt[l1 + l2]
                scale = math.comb(l1 + l2, l1)
                for w1, c1 in words.items():
                    c1 *= scale
                    for w2, c2 in blocks[l2].items():
                        w = w1 + w2
                        out[w] = out.get(w, 0) + c1 * c2
        power = nxt
        sign = lcm // m if m % 2 else -(lcm // m)
        for acc, words in zip(log, power):
            for w, c in words.items():
                acc[w] = acc.get(w, 0) + sign * c
    return [{w: c for w, c in acc.items() if c} for acc in log]


def _dynkin_word(word, lcm: int) -> int:
    """n*n!*lcm times the coefficient of word's Dynkin bracketing in CH_n.

    The coefficient sums (-1)^(t-1)/(t n prod a_i! b_i!) over the splittings
    of the word into t consecutive blocks x^a y^b, a + b >= 1; lcm must be a
    multiple of lcm(1..n).  table[i][t] is i! times the inner sum over the
    splittings of the first i letters into t blocks, so appending the block
    word[j:i] = x^a y^b multiplies by i!/(j! a! b!) = C(i, j) C(i-j, a).
    """
    n = len(word)
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for j in range(n):
        row = table[j]
        a = 0                                   # leading x's of word[j:i]
        for i in range(j + 1, n + 1):
            if word[i - 1] == 0:
                if a < i - 1 - j:               # an x after a y
                    break
                a += 1
            weight = math.comb(i, j) * math.comb(i - j, a)
            out = table[i]
            for t in range(j + 1):              # j letters make <= j blocks
                if row[t]:
                    out[t + 1] += row[t] * weight
    return sum((lcm // t if t % 2 else -(lcm // t)) * table[n][t]
               for t in range(1, n + 1))


@lru_cache(maxsize=None)
def _dynkin_bracket(word) -> tuple:
    """Dynkin bracketing [w1,[w2,[...,wn]]] of a word in the Lyndon basis.

    A tuple of (basis index, integer coefficient), built with the integral
    structure constants of bracket_table(1, n - 1).
    """
    n = len(word)
    if n == 1:
        return ((word[0], 1),)
    table = bracket_table(1, n - 1)
    out: dict = {}
    for k, c in _dynkin_bracket(word[1:]):
        for k2, c2 in table.get((word[0], k), ()):
            out[k2] = out.get(k2, 0) + c * c2
    return tuple((k, c) for k, c in out.items() if c)


def _component(n: int, coeffs: dict, den: int, n_max: int) -> LiePoly:
    """The degree-n LiePoly with coefficients coeffs[k]/den."""
    return LiePoly({(n, k): Fraction(c, den) for k, c in coeffs.items()},
                   n_max)


def _assoc_bch(n_max: int) -> dict:
    """{n: CH_n} by the associative logarithm, rewritten into the Lyndon basis."""
    lcm = math.lcm(*range(1, n_max + 1))
    split = _log_words(n_max, lcm)
    return {n: _component(n, words_to_lyndon(split[n], n),
                          math.factorial(n) * lcm, n_max)
            for n in range(1, n_max + 1)}


def _dynkin_bch(n_max: int) -> dict:
    """{n: CH_n} by Dynkin's formula."""
    lcm = math.lcm(*range(1, n_max + 1))
    comps = {}
    for n in range(1, n_max + 1):
        acc: dict = {}
        for word in product((0, 1), repeat=n):
            c = _dynkin_word(word, lcm)
            if c:
                for k, s in _dynkin_bracket(word):
                    acc[k] = acc.get(k, 0) + c * s
        comps[n] = _component(n, acc, n * math.factorial(n) * lcm, n_max)
    return comps


@lru_cache(maxsize=None)
def bch(n_max: int = DEGREE_CAP) -> LiePoly:
    """log(exp x exp y) through degree N, exactly: the sum CH_1 + ... + CH_N.

    Each component is computed by the associative-logarithm route (rewritten
    into the Lyndon basis) and independently by Dynkin's formula; a
    disagreement anywhere is a bug and raises PropertyFailed.
    """
    comps = _assoc_bch(n_max)
    dynkin = _dynkin_bch(n_max)
    for n in range(1, n_max + 1):
        if comps[n] != dynkin[n]:
            raise PropertyFailed(f"CH routes disagree at degree {n}")
    return sum(comps.values(), LiePoly.zero(n_max))


def exp_ad_apply(phi: LiePoly, target: str, n_max: int) -> LiePoly:
    """Truncated exp(ad phi) applied to a generator: sum_k (ad phi)^k(target)/k!.

    Valid through degree n_max provided phi's terms are known through
    degree n_max - 1.
    """
    t = generator(target, n_max)
    phi = phi.with_max_degree(n_max)
    acc = t
    cur = t
    k = 0
    while cur and k < n_max:
        k += 1
        cur = bracket(phi, cur, n_max)
        if cur:
            acc = acc + cur * Fraction(1, math.factorial(k))
    return acc
