"""Exact arithmetic in the free Lie algebra on two generators.

Elements live in the Lyndon basis: the standard bracketings of Lyndon words
on {x, y}.  Coefficients are rationals or elements of a real quadratic field
Q(sqrt p), kept exact throughout, so p-adic valuations of coefficients act as
certificates rather than floating-point estimates (v(sqrt p) = 1/2).

Brackets are normalized by embedding into the truncated free associative
algebra: the expansion of the standard bracketing of a Lyndon word w is w
plus lexicographically larger words, so a Lie element written in the word
basis rewrites into the Lyndon basis by repeatedly stripping its smallest
word.  The Campbell-Hausdorff series log(exp x exp y) is computed twice, by
the associative-logarithm route and by Dynkin's bracketing formula, and the
two expansions must agree coefficient for coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import PrimeContextMismatch

#: default truncation order for series work; callers may exceed it explicitly
DEGREE_CAP = 8

INFINITY = math.inf


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


class Scalar:
    """An exact number a + b*sqrt(p) with rational a, b.

    ``prime`` is None for plain rationals, in which case the surd part is
    zero.  Mixing scalars with two different primes raises
    PrimeContextMismatch; a plain rational is compatible with any prime.
    """

    __slots__ = ("rat", "surd", "prime")

    def __init__(self, rat=0, surd=0, prime=None):
        rat = Fraction(rat)
        surd = Fraction(surd)
        if surd == 0:
            prime = None
        elif prime is None:
            raise ValueError("surd part requires a prime context")
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "surd", surd)
        object.__setattr__(self, "prime", prime)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def sqrt(p: int) -> "Scalar":
        return Scalar(0, 1, p)

    def _join(self, other: "Scalar"):
        if self.prime is None:
            return other.prime
        if other.prime is None or other.prime == self.prime:
            return self.prime
        raise PrimeContextMismatch(f"sqrt({self.prime}) vs sqrt({other.prime})")

    def __add__(self, other):
        other = _scalar(other)
        p = self._join(other)
        return Scalar(self.rat + other.rat, self.surd + other.surd, p)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_scalar(other))

    def __rsub__(self, other):
        return _scalar(other) + (-self)

    def __neg__(self):
        return Scalar(-self.rat, -self.surd, self.prime)

    def __mul__(self, other):
        other = _scalar(other)
        p = self._join(other)
        rat = self.rat * other.rat
        surd = self.rat * other.surd + self.surd * other.rat
        if self.surd and other.surd:
            rat += self.surd * other.surd * p
        return Scalar(rat, surd, p)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("scalar is zero")
        if self.surd == 0:
            return Scalar(1 / self.rat)
        # 1/(a + b s) = (a - b s)/(a^2 - p b^2); the norm is nonzero since
        # sqrt(p) is irrational
        norm = self.rat * self.rat - self.prime * self.surd * self.surd
        return Scalar(self.rat / norm, -self.surd / norm, self.prime)

    def __truediv__(self, other):
        return self * _scalar(other).inverse()

    def __rtruediv__(self, other):
        return _scalar(other) * self.inverse()

    def __bool__(self):
        return bool(self.rat or self.surd)

    def __eq__(self, other):
        try:
            other = _scalar(other)
        except (TypeError, ValueError):
            return NotImplemented
        if self.rat != other.rat or self.surd != other.surd:
            return False
        return self.surd == 0 or self.prime == other.prime

    def __hash__(self):
        return hash((self.rat, self.surd, self.prime))

    def valuation(self, p: int):
        """p-adic valuation extended to Q(sqrt p); half-integral on surds."""
        if self.surd and self.prime != p:
            raise PrimeContextMismatch(
                f"valuation at {p} undefined for sqrt({self.prime}) scalar")
        if not self:
            return INFINITY
        vals = []
        if self.rat:
            vals.append(vp(self.rat, p))
        if self.surd:
            vals.append(vp(self.surd, p) + Fraction(1, 2))
        return min(vals)

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if self.surd == 0:
            return str(self.rat)
        s = f"sqrt({self.prime})" if self.surd == 1 else (
            f"-sqrt({self.prime})" if self.surd == -1 else f"{self.surd}*sqrt({self.prime})")
        if self.rat == 0:
            return s
        return f"{self.rat}{'+' if self.surd > 0 else ''}{s}"


def _scalar(c) -> Scalar:
    if isinstance(c, Scalar):
        return c
    if isinstance(c, (int, Fraction)):
        return Scalar(c)
    raise TypeError(f"cannot interpret {c!r} as a scalar")


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
def standard_bracketing(word):
    """Nested-tuple bracketing of a Lyndon word via its standard factorization.

    The right factor is the longest proper Lyndon suffix; leaves are the
    letters 0 and 1.
    """
    if len(word) == 1:
        return word[0]
    for i in range(1, len(word)):
        if _is_lyndon(word[i:]):
            return (standard_bracketing(word[:i]), standard_bracketing(word[i:]))
    raise ValueError(f"{word} is not a Lyndon word")


@lru_cache(maxsize=None)
def _tree_expansion(tree):
    """Expansion of a bracketing tree in the free associative algebra (int coeffs)."""
    if isinstance(tree, int):
        return {(tree,): 1}
    left = _tree_expansion(tree[0])
    right = _tree_expansion(tree[1])
    out: dict = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            c = c1 * c2
            out[w1 + w2] = out.get(w1 + w2, 0) + c
            out[w2 + w1] = out.get(w2 + w1, 0) - c
    return {w: c for w, c in out.items() if c}


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
            ej = basis_expansion(d2, j)
            prod_: dict = {}
            for w1, c1 in ei.items():
                for w2, c2 in ej.items():
                    c = c1 * c2
                    prod_[w1 + w2] = prod_.get(w1 + w2, 0) + c
                    prod_[w2 + w1] = prod_.get(w2 + w1, 0) - c
            res = words_to_lyndon(prod_, d1 + d2)
            entry = tuple(sorted((k, c) for k, c in res.items() if c))
            if entry:
                table[(i, j)] = entry
    return table


# -- Lie polynomials ----------------------------------------------------------

class LiePoly:
    """A Lie element with coefficients on Lyndon bracketings.

    ``terms`` maps (degree, basis index) to a nonzero Scalar; anything of
    degree above ``max_degree`` is dropped at construction time, which is how
    truncation order propagates through arithmetic.  Equality compares the
    coefficient maps only.
    """

    __slots__ = ("terms", "max_degree")

    def __init__(self, terms=None, max_degree: int = DEGREE_CAP):
        data = {}
        for key, c in (terms or {}).items():
            c = _scalar(c)
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
        c = _scalar(c)
        return LiePoly({k: s * c for k, s in self.terms.items()}, self.max_degree)

    __rmul__ = __mul__

    def with_max_degree(self, n: int) -> "LiePoly":
        return LiePoly(self.terms, n)

    def homogeneous_part(self, n: int) -> "LiePoly":
        return LiePoly({k: c for k, c in self.terms.items() if k[0] == n},
                       self.max_degree)

    def degrees(self):
        return sorted({d for d, _ in self.terms})

    def min_degree(self):
        return min((d for d, _ in self.terms), default=None)

    def prime_context(self):
        p = None
        for c in self.terms.values():
            if c.prime is not None:
                if p is not None and p != c.prime:
                    raise PrimeContextMismatch("mixed surd primes in one element")
                p = c.prime
        return p

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
    return min((c.valuation(p) for c in h.terms.values()), default=INFINITY)


# -- graded series ------------------------------------------------------------

class GradedSeries:
    """Graded components of a Lie series; component n is homogeneous of degree n."""

    __slots__ = ("components", "truncation")

    def __init__(self, components: dict, truncation: int):
        comps = {}
        for n, poly in components.items():
            if n > truncation or not poly:
                continue
            if any(d != n for d, _ in poly.terms):
                raise ValueError(f"component {n} is not homogeneous")
            comps[n] = poly
        self.components = comps
        self.truncation = truncation

    def component(self, n: int) -> LiePoly:
        return self.components.get(n, LiePoly.zero(self.truncation))

    def degrees(self):
        return sorted(self.components)

    def total(self) -> LiePoly:
        data = {}
        for poly in self.components.values():
            data.update(poly.terms)
        return LiePoly(data, self.truncation)

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.components == other.components

    def __add__(self, other):
        n = min(self.truncation, other.truncation)
        comps = {}
        for k in set(self.components) | set(other.components):
            if k > n:
                continue
            data = dict(self.component(k).terms)
            for key, c in other.component(k).terms.items():
                s = data.get(key)
                data[key] = c if s is None else s + c
            comps[k] = LiePoly(data, n)
        return GradedSeries(comps, n)

    def __str__(self):
        return " + ".join(str(self.components[n]) for n in self.degrees()) or "0"

    __repr__ = __str__


# -- the Campbell-Hausdorff series -------------------------------------------

def _word_mul(a: dict, b: dict, cap: int) -> dict:
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) > cap:
                continue
            w = w1 + w2
            nc = out.get(w, 0) + c1 * c2
            if nc:
                out[w] = nc
            else:
                out.pop(w, None)
    return out


def _assoc_log(n_max: int):
    """Degree components of log(exp x exp y) in the free associative algebra."""
    prod_ = {}
    for a in range(n_max + 1):
        for b in range(n_max - a + 1):
            if a + b == 0:
                continue
            prod_[(0,) * a + (1,) * b] = Fraction(
                1, math.factorial(a) * math.factorial(b))
    acc: dict = {}
    zpow = {(): Fraction(1)}
    for m in range(1, n_max + 1):
        zpow = _word_mul(zpow, prod_, n_max)
        sign = Fraction((-1) ** (m + 1), m)
        for w, c in zpow.items():
            nc = acc.get(w, 0) + sign * c
            if nc:
                acc[w] = nc
            else:
                acc.pop(w, None)
    split = [dict() for _ in range(n_max + 1)]
    for w, c in acc.items():
        split[len(w)][w] = c
    return split


@lru_cache(maxsize=None)
def _right_normed(word) -> LiePoly:
    """Dynkin bracketing [w1,[w2,[...,wn]]] of a word, as a Lyndon-basis element."""
    n = len(word)
    if n == 1:
        return generator("xy"[word[0]], 1)
    inner = _right_normed(word[1:]).with_max_degree(n)
    return bracket(generator("xy"[word[0]], n), inner, n)


def _dynkin_coeff(word) -> Fraction:
    """Coefficient of the Dynkin bracketing of a word in the CH series.

    Sums (-1)^(t-1)/(t n prod a_i! b_i!) over the splittings of the word into
    t consecutive blocks of the shape x^a y^b, a + b >= 1.
    """
    n = len(word)
    seg = {}
    for j in range(n):
        for i in range(j + 1, n + 1):
            block = word[j:i]
            k = 0
            while k < len(block) and block[k] == 0:
                k += 1
            if any(c == 0 for c in block[k:]):
                continue
            a, b = k, len(block) - k
            seg[(j, i)] = Fraction(1, math.factorial(a) * math.factorial(b))
    table = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    table[0][0] = Fraction(1)
    for i in range(1, n + 1):
        for t in range(1, i + 1):
            s = Fraction(0)
            for j in range(i):
                w = seg.get((j, i))
                if w is not None and table[j][t - 1]:
                    s += table[j][t - 1] * w
            table[i][t] = s
    total = Fraction(0)
    for t in range(1, n + 1):
        if table[n][t]:
            total += Fraction((-1) ** (t - 1), t * n) * table[n][t]
    return total


def _dynkin_bch(n_max: int) -> dict:
    comps = {}
    for n in range(1, n_max + 1):
        acc: dict = {}
        for word in product((0, 1), repeat=n):
            c = _dynkin_coeff(word)
            if not c:
                continue
            for key, s in _right_normed(word).terms.items():
                cur = acc.get(key)
                add = s * c
                acc[key] = add if cur is None else cur + add
        comps[n] = LiePoly(acc, n_max)
    return comps


@lru_cache(maxsize=None)
def bch(n_max: int = DEGREE_CAP) -> GradedSeries:
    """Graded components CH_1..CH_N of log(exp x exp y), exactly.

    Computed by the associative-logarithm route (rewritten into the Lyndon
    basis) and independently by Dynkin's formula; a disagreement anywhere is
    a bug and raises RuntimeError.
    """
    split = _assoc_log(n_max)
    comps = {}
    for n in range(1, n_max + 1):
        coeffs = words_to_lyndon(split[n], n)
        comps[n] = LiePoly({(n, k): c for k, c in coeffs.items()}, n_max)
    dynkin = _dynkin_bch(n_max)
    for n in range(1, n_max + 1):
        if comps[n] != dynkin[n]:
            raise RuntimeError(f"CH routes disagree at degree {n}")
    return GradedSeries(comps, n_max)


def exp_ad_apply(phi: GradedSeries, target: str, n_max: int) -> GradedSeries:
    """Truncated exp(ad phi) applied to a generator: sum_k (ad phi)^k(target)/k!.

    Valid through degree n_max provided phi's components are known through
    degree n_max - 1.
    """
    t = generator(target, n_max)
    phi_total = phi.total().with_max_degree(n_max)
    acc = t
    cur = t
    k = 0
    while cur and k < n_max:
        k += 1
        cur = bracket(phi_total, cur, n_max)
        if cur:
            acc = acc + cur * Fraction(1, math.factorial(k))
    comps = {}
    for key, c in acc.terms.items():
        comps.setdefault(key[0], {})[key] = c
    return GradedSeries(
        {n: LiePoly(data, n_max) for n, data in comps.items()}, n_max)
