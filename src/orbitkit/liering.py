"""Finite nilpotent Lie rings and the groups they carry under CH multiplication.

A ring lives on ⊕ᵢ Z/p^{kᵢ} with bracket structure constants given for basis
pairs i < j and extended antisymmetrically.  Validation covers primality,
well-definedness of the constants against the mixed moduli, the Jacobi
identity on basis triples, nilpotence, and membership in one of the two
regimes where CH multiplication makes the underlying set a group:

  * class < p: every CH coefficient that survives truncation has a p-unit
    denominator, so evaluation stays in canonical residues;
  * uniform: [g, g] ⊆ p·g (⊆ 4·g when p = 2) with structure constants that
    lift to an exact Lie ring over Z_(p).  Evaluation then runs at working
    precision p^(K+s) and divides each term's p-denominator out exactly.
    At p = 2 the half bracket CH_2 = [x, y]/2 must also be well defined on
    the moduli: c·2^min(k_i,k_j) ≡ 0 mod 2^(k_m+1) for each constant.

Groups are the same coordinate vectors with CH as multiplication; exp and
log are identity maps on coordinates.  One Grid, built per ring on first
use, enumerates that coordinate set for G and, through the pairing
Σ a_i x_i / p^{k_i}, for the dual g*.

The constants are held once, as a pair table: the pairs i < j with a
nonzero constant, each with its constants c at targets m (canonical
residues, or in the uniform regime residues of the lifts mod the working
precision).  One kernel brackets over a pair list and serves every bracket,
adjoint matrix and CH evaluation on elements.  It runs coordinate-major:
batches of (..., rank) vectors enter as (rank, ...) views, so coordinate i
of the whole batch is one contiguous row U[i] and a single vector against
a batch broadcasts without copies.  Per pair it forms
D = U[i]·V[j] − U[j]·V[i] once and adds c·D into row m; then it reduces
the rows it reached, each by its own scalar modulus as x − x // m · m,
which numpy computes far faster than np.mod.

CH and Lie-series plans carry static row supports.  x and y can be nonzero
on every row; a bracketing step keeps only the table pairs (i, j) for which
U[i]·V[j] or U[j]·V[i] can be nonzero given its operands' supports, forms
only those products, and its support is the union of the kept pairs'
targets.  In a nilpotent ring nested brackets reach fewer and fewer rows,
so each bracket value is held only on its support rows, the term sum adds
each term into its own rows of one output, and only rows some term reaches
are reduced.  e^(ad W) runs the same way.  The pruning drops only summands
that are exactly zero, so values, and the headroom bound below, are those
of the full table.
Validation (Jacobi, the lower central series) brackets the same pairs in
exact integer or Fraction arithmetic.

Arithmetic on elements is int64, so make_ring checks headroom instead of
assuming it.  With W the largest working modulus, S the largest column sum
of the table and T the number of Lyndon words up to the evaluation degree
(the most terms a product sums), every intermediate is at most
(W − 1)² · max(S, T): row m of a bracket sums c·D over the pairs that
reach m, and a Lie series sums at most T products of a residue and a
multiplier, reducing once at the end.  A ring whose bound exceeds
2^63 − 1 is rejected with IntegerHeadroomExceeded, and so is a longer
series evaluated later.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from .errors import (AutomorphismCheckFailed, EvaluationNotIntegral,
                     IntegerHeadroomExceeded, JacobiViolation, PropertyFailed,
                     RegimeViolation, SubringNotClosed,
                     WellDefinednessViolation)
from .freelie import (DEGREE_CAP, _is_lyndon, bch, lyndon_count, lyndon_words,
                      vp)
from .modlin import cyclic_basis, howell_form, solve_mod, span_equal


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _std_split(word):
    """Standard factorization of a Lyndon word of length >= 2."""
    for i in range(1, len(word)):
        if _is_lyndon(word[i:]):
            return word[:i], word[i:]
    raise ValueError(f"{word} is not a Lyndon word")


def _plan_steps(words):
    """Bracketing steps (word, left, right) for evaluating the given Lyndon
    words, children before parents, so a step's row support can be built
    from its children's (FiniteLieRing._term_plan)."""
    steps = []
    seen = set()

    def visit(w):
        if len(w) == 1 or w in seen:
            return
        seen.add(w)
        left, right = _std_split(w)
        visit(left)
        visit(right)
        steps.append((w, left, right))

    for w in sorted(words, key=len):
        visit(w)
    return steps


def _poly_terms(poly):
    """LiePoly -> list of (lyndon word, Fraction coefficient)."""
    out = []
    for (degree, index), c in sorted(poly.terms.items()):
        if c.surd:
            raise ValueError("coefficient off Q(1): surd part in ring evaluation")
        out.append((lyndon_words(degree)[index], c.rat))
    return out


def _series_terms(series):
    out = []
    for n in sorted(series.components):
        out.extend(_poly_terms(series.components[n]))
    return out


def _fraction_constant(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"structure constant {c!r} is not an integer or Fraction")


class FiniteLieRing:
    """Validated finite nilpotent Lie ring; construct through make_ring."""

    __slots__ = ("p", "moduli", "rank", "label", "sizes", "big", "cap",
                 "constants", "class_", "uniform_depth", "ch_truncation",
                 "uniform", "_mods", "_canon", "_work", "_table", "_reach",
                 "_shift", "_capacity", "_ch", "_exp_ad", "_plan_cache",
                 "_grid")

    def __init__(self, p, moduli, constants, working, class_, uniform_depth,
                 uniform, ch_truncation, work_sizes, shift, capacity, label):
        self.p = p
        self.moduli = tuple(moduli)
        self.rank = len(self.moduli)
        self.label = label
        self.sizes = tuple(p ** k for k in self.moduli)
        self.cap = max(self.moduli, default=0)
        self.big = p ** self.cap
        self.constants = constants
        self.class_ = class_
        self.uniform_depth = uniform_depth
        self.uniform = uniform
        self.ch_truncation = ch_truncation
        self._mods = np.array(self.sizes, dtype=np.int64)
        self._canon = _modulus(self.sizes)
        self._work = _modulus(work_sizes)
        self._table = _triple_table(working)
        self._reach = tuple(sorted({m for *_, targets in self._table
                                    for m, _ in targets}))
        self._shift = shift
        self._capacity = capacity
        self._ch = None
        self._exp_ad = self._exp_ad_plan()
        self._plan_cache = {}
        self._grid = None

    # -- elements ------------------------------------------------------------

    def order(self) -> int:
        return math.prod(self.sizes)

    @property
    def grid(self) -> "Grid":
        """The enumeration of the coordinate set, built on first use."""
        if self._grid is None:
            self._grid = Grid(self.sizes)
        return self._grid

    def element(self, coords):
        arr = np.asarray(coords, dtype=np.int64)
        if arr.shape != (self.rank,):
            raise ValueError(f"expected {self.rank} coordinates")
        return tuple(int(x) for x in arr % self._mods)

    def zero(self):
        return (0,) * self.rank

    def basis(self, i: int):
        e = [0] * self.rank
        e[i] = 1
        return tuple(e)

    def negate(self, u):
        return self.element([-x for x in u])

    def add(self, u, v):
        return self.element([a + b for a, b in zip(u, v)])

    def scale(self, u, t: int):
        return self.element([t * x for x in u])

    # -- bracket -------------------------------------------------------------

    def bracket_batch(self, U, V):
        """[U, V] for (..., rank) arrays of canonical residues."""
        U, V, shape, batch = _coordinate_major(U, V)
        out = np.zeros((self.rank,) + batch, dtype=np.int64)
        return _row_major(
            _bracket(self._table, U, V, self._canon, out, self._reach), shape)

    def bracket(self, u, v):
        return tuple(int(x) for x in self.bracket_batch(u, v))

    # -- CH multiplication ---------------------------------------------------

    def _coefficient(self, q: Fraction, rows=None):
        """(q, a, multiplier): a is the p-adic valuation of q's denominator,
        the multiplier is q·p^a reduced by the working modulus of each of
        the given rows (default all)."""
        den = q.denominator
        a = 0
        while den % self.p == 0:
            den //= self.p
            a += 1
        if isinstance(self._work, int):
            return q, a, q.numerator * pow(den, -1, self._work) % self._work
        work = self._work if rows is None else [self._work[m] for m in rows]
        mult = np.array([q.numerator * pow(den, -1, m) % m for m in work],
                        dtype=np.int64)
        return q, a, mult

    def _step(self, left, right):
        """(pairs, support, modulus) for [U, V] with U nonzero only on the
        rows `left` and V only on the rows `right` (None: every row).

        A table pair (i, j) is kept when U[i]·V[j] or U[j]·V[i] can be
        nonzero; when only U[j]·V[i] can, it is kept as (j, i) with its
        constants negated, so the kernel forms the one product.  The support
        is the sorted union of the kept pairs' targets, each target is named
        by its slot in the support, and the modulus is the working modulus
        of the support rows in slot order.
        """
        every = range(self.rank)
        left = set(every if left is None else left)
        right = set(every if right is None else right)
        kept = []
        for i, j, _, targets in self._table:
            forward = i in left and j in right
            backward = j in left and i in right
            if forward or backward:
                kept.append((i, j, forward, backward, targets))
        support = tuple(sorted({m for *_, targets in kept
                                for m, _ in targets}))
        slot = {m: k for k, m in enumerate(support)}
        pairs = tuple(
            (i, j, backward, tuple((slot[m], c) for m, c in targets))
            if forward else
            (j, i, False, tuple((slot[m], -c) for m, c in targets))
            for i, j, forward, backward, targets in kept)
        modulus = (self._work if isinstance(self._work, int)
                   else _modulus([self._work[m] for m in support]))
        return pairs, support, modulus

    def _term_plan(self, terms):
        """Bracketing steps for the terms' words with their row supports,
        and each term's word with its coefficient worked out once; cached
        per tuple of terms.

        x and y have every row; each step's pruned pairs and support come
        from its children's supports (_step), so a word's support holds
        every row its bracket can be nonzero on.  The plan also keeps the
        rows some term reaches, None for all: the only rows the sum reduces.
        """
        key = tuple(terms)
        plan = self._plan_cache.get(key)
        if plan is None:
            if len(key) > self._capacity:
                raise IntegerHeadroomExceeded(
                    f"{len(key)} terms at working modulus "
                    f"{int(np.max(self._work))} exceed the {self._capacity} "
                    f"whose sum fits in int64")
            supports = {(0,): None, (1,): None}
            steps = []
            for w, left, right in _plan_steps({w for w, _ in key
                                               if len(w) > 1}):
                pairs, supports[w], modulus = self._step(supports[left],
                                                         supports[right])
                steps.append((w, left, right, pairs, supports[w], modulus))
            terms = [(w, self._coefficient(q, supports[w]), supports[w])
                     for w, q in key]
            reached = set().union(*(range(self.rank) if support is None
                                    else support for *_, support in terms))
            reached = (None if len(reached) == self.rank
                       else tuple(sorted(reached)))
            plan = (steps, terms, reached)
            self._plan_cache[key] = plan
        return plan

    def _scaled(self, vals, coefficient):
        """vals·q for reduced coordinate-major vals, unreduced: callers sum
        the products and reduce once.  A p in q's denominator is divided
        out of vals exactly first, which keeps the product below (W − 1)²."""
        q, a, mult = coefficient
        if a:
            if self.uniform and a > self._shift:
                raise EvaluationNotIntegral(
                    f"coefficient {q} needs p^{a} beyond working precision")
            quot = vals // self.p ** a
            if not np.array_equal(quot * self.p ** a, vals):
                raise EvaluationNotIntegral(
                    f"value not divisible by p^{a} for coefficient {q}")
            vals = quot
        if isinstance(mult, int):
            return vals if mult == 1 else vals * mult
        return vals * mult.reshape((-1,) + (1,) * (vals.ndim - 1))

    def _add_term(self, out, vals, coefficient, support):
        """Add vals·q into the support rows of out (every row for None)."""
        scaled = self._scaled(vals, coefficient)
        if support is None:
            out += scaled
            return
        for m, row in zip(support, scaled):
            out[m] += row

    def _eval_terms(self, plan, U, V):
        """Σ coeff · (bracketing word)(U, V) reduced to canonical coordinates.

        U, V: (..., rank) arrays.  Brackets run at the working modulus: the
        lift table at working precision in the uniform regime, canonical
        per-coordinate residues otherwise.  Each bracket value is held on
        its support rows only, as a compact array for the term sum and as
        a dict of row views for the brackets that take it as an operand.
        """
        steps, terms, reached = plan
        U, V, shape, batch = _coordinate_major(U, V)
        values = {(0,): _reduce(U, self._work, np.empty(U.shape, np.int64)),
                  (1,): _reduce(V, self._work, np.empty(V.shape, np.int64))}
        rows = dict(values)
        for w, left, right, pairs, support, modulus in steps:
            values[w] = _bracket(pairs, rows[left], rows[right], modulus,
                                 np.zeros((len(support),) + batch, np.int64))
            rows[w] = dict(zip(support, values[w]))
        out = np.zeros((self.rank,) + batch, dtype=np.int64)
        for w, coefficient, support in terms:
            self._add_term(out, values[w], coefficient, support)
        return _row_major(_reduce(out, self._canon, rows=reached), shape)

    def ch_batch(self, U, V):
        if self.rank == 0:
            return np.zeros(np.broadcast(np.asarray(U), np.asarray(V)).shape,
                            dtype=np.int64)
        if self._ch is None:
            series = bch(self.ch_truncation)
            terms = []
            for n in range(1, self.ch_truncation + 1):
                terms.extend(_poly_terms(series.component(n)))
            self._ch = self._term_plan(terms)
        return self._eval_terms(self._ch, U, V)

    def ch_multiply(self, u, v):
        """Group product exp(u)·exp(v) in coordinates, Σ_n CH_n(u, v)."""
        return tuple(int(x) for x in self.ch_batch(u, v))

    def evaluate_series_batch(self, series, U, V):
        if self.rank == 0:
            return np.zeros(np.broadcast(np.asarray(U), np.asarray(V)).shape,
                            dtype=np.int64)
        return self._eval_terms(self._term_plan(_series_terms(series)), U, V)

    # -- adjoint machinery ---------------------------------------------------

    def _exp_ad_limit(self) -> int:
        if self.uniform:
            return self.ch_truncation - 1
        return max(self.class_ - 1, 0)

    def _exp_ad_plan(self):
        """The steps (pairs, support, modulus, coefficient) of e^(ad W)X:
        step k brackets W, on every row, with step k − 1's value, whose
        support it narrows, and scales the result by 1/k!."""
        steps, support = [], None
        for k in range(1, self._exp_ad_limit() + 1):
            pairs, support, modulus = self._step(None, support)
            steps.append((pairs, support, modulus, self._coefficient(
                Fraction(1, math.factorial(k)), support)))
        return steps

    def exp_ad_batch(self, W, X):
        """e^(ad W) applied to X, both (..., rank) arrays."""
        if self.rank == 0:
            return np.array(X, dtype=np.int64)
        W, X, shape, batch = _coordinate_major(W, X)
        W = _reduce(W, self._work, np.empty(W.shape, np.int64))
        cur = _reduce(X, self._work, np.empty(X.shape, np.int64))
        out = np.zeros((self.rank,) + batch, dtype=np.int64)
        out += cur
        for pairs, support, modulus, coefficient in self._exp_ad:
            vals = _bracket(pairs, W, cur, modulus,
                            np.zeros((len(support),) + batch, np.int64))
            self._add_term(out, vals, coefficient, support)
            cur = dict(zip(support, vals))
        return _row_major(_reduce(out, self._canon), shape)

    def exp_ad_matrix(self, w):
        """Matrix of the truncated exponential Σ (ad w)^k / k!."""
        return np.ascontiguousarray(
            self.exp_ad_batch(w, np.eye(self.rank, dtype=np.int64)).T)

    # -- misc ----------------------------------------------------------------

    def embed(self, coords):
        """Image of an element in (Z/p^cap)^rank, coordinate i scaled by
        p^(cap - k_i); subgroup computations happen there."""
        return [int(c) * self.p ** (self.cap - k) % self.big
                for c, k in zip(coords, self.moduli)]

    def unembed(self, row):
        return tuple(int(x) // self.p ** (self.cap - k)
                     for x, k in zip(row, self.moduli))

    def describe(self) -> dict:
        return {"p": self.p, "moduli": list(self.moduli),
                "order": self.order(), "class": self.class_,
                "uniform_depth": self.uniform_depth,
                "regime": "uniform" if self.uniform else "class<p",
                "label": self.label}

    def __repr__(self):
        tag = self.label or f"p={self.p},moduli={list(self.moduli)}"
        return f"FiniteLieRing({tag}, class={self.class_})"


_INT64_MAX = int(np.iinfo(np.int64).max)


def _modulus(sizes):
    """Reduction modulus for coordinate rows of these sizes: a plain int
    when they agree, so one scalar division reduces a whole batch, else a
    tuple of ints, one scalar per row (numpy divides by a scalar far faster
    than by a vector)."""
    if len(set(sizes)) == 1:
        return int(sizes[0])
    return tuple(int(s) for s in sizes)


def _triple_table(constants):
    """Kernel form of {(i, j): {m: c}}: the pairs i < j with a nonzero
    constant, in key order, as the full pair list (i, j, True, ((m, c), ...))
    with int constants (see _bracket)."""
    table = []
    for (i, j), row in sorted(constants.items()):
        targets = tuple((m, int(c)) for m, c in sorted(row.items()) if c)
        if targets:
            table.append((i, j, True, targets))
    return tuple(table)


def _coordinate_major(U, V):
    """(rank, ...) views of two (..., rank) arrays, padded with leading 1s
    to one number of axes, at least two, so every row is an array view and
    a vector against a batch broadcasts without copies.  Also returns the
    (..., rank) shape of their broadcast and its batch shape (no rank axis)
    in coordinate-major form."""
    U = np.asarray(U, dtype=np.int64)
    V = np.asarray(V, dtype=np.int64)
    shape = np.broadcast(U, V).shape
    ndim = max(len(shape), 2)
    # np.moveaxis(X, -1, 0), without its per-call axis normalisation
    front = (ndim - 1,) + tuple(range(ndim - 1))
    U, V = (X.reshape((1,) * (ndim - X.ndim) + X.shape).transpose(front)
            for X in (U, V))
    return U, V, shape, ((1,) * (ndim - len(shape)) + shape)[:-1]


def _row_major(X, shape):
    """The (..., rank) view of a coordinate-major result of this shape."""
    return X.transpose(tuple(range(1, X.ndim)) + (0,)).reshape(shape)


def _reduce(X, modulus, out=None, rows=None):
    """X mod the modulus for a coordinate-major X, written into out (X
    itself by default) and returned: row r by modulus[r], or every row by
    an int modulus, over the given rows (default all).

    Each reduction is x − x // m · m.  That equals np.mod(x, m) for every
    int64 x and m > 0, even where (x // m) · m wraps: int64 arithmetic is
    exact mod 2^64 and the true result lies in [0, m).
    """
    out = X if out is None else out
    if isinstance(modulus, int) and rows is None:
        quot = X // modulus
        quot *= modulus
        np.subtract(X, quot, out=out)
        return out
    for r in range(len(X)) if rows is None else rows:
        m = modulus if isinstance(modulus, int) else modulus[r]
        quot = X[r] // m
        quot *= m
        np.subtract(X[r], quot, out=out[r])
    return out


def _bracket(pairs, U, V, modulus, out, rows=None):
    """[U, V] over a pair list, added into out, a zeroed coordinate-major
    array whose rows broadcast against U's and V's; then out's given rows
    (default all) are reduced by the modulus, row r by modulus[r] or all by
    an int, and out is returned.

    U and V are indexed by coordinate: arrays with every row, or dicts of
    the rows a value can be nonzero on.  Each pair (i, j, both, targets)
    forms D = U[i]·V[j], minus U[j]·V[i] when both, once and adds c·D into
    out[slot] for each (slot, c) of its targets.  bracket_batch passes the
    full table, whose slots are the target rows, with the rows it reaches;
    a plan step passes its pruned pairs, whose slots index its support
    (FiniteLieRing._step), and every row of out is reached.
    """
    for i, j, both, targets in pairs:
        D = U[i] * V[j]
        if both:
            D -= U[j] * V[i]
        for slot, c in targets:
            row = out[slot]
            if c == 1:
                row += D
            elif c == -1:
                row -= D
            else:
                row += c * D
    return _reduce(out, modulus, rows=rows)


def _exact_bracket(constants, u, v):
    """[u, v] over {(i, j): {m: c}} in exact int or Fraction arithmetic."""
    out = [0] * len(u)
    for (i, j), row in constants.items():
        coef = u[i] * v[j] - u[j] * v[i]
        if coef:
            for m, c in row.items():
                out[m] += coef * c
    return out


def jacobi_defects(rank, constants, reduce=None):
    """Yield (triple, defect) for each basis triple i < j < l whose Jacobi
    sum [[e_i,e_j],e_l] + [[e_j,e_l],e_i] + [[e_l,e_i],e_j] is nonzero.

    constants: {(i, j): {m: c}} with ints or Fractions; the sum is exact,
    then reduced as reduce(m, value) per coordinate m when given.
    """
    basis = [[int(a == b) for b in range(rank)] for a in range(rank)]
    for i, j, l in itertools.combinations(range(rank), 3):
        total = [0] * rank
        for a, b, c in ((i, j, l), (j, l, i), (l, i, j)):
            inner = _exact_bracket(constants, basis[a], basis[b])
            outer = _exact_bracket(constants, inner, basis[c])
            total = [x + y for x, y in zip(total, outer)]
        if reduce is not None:
            total = [reduce(m, x) for m, x in enumerate(total)]
        if any(total):
            yield (i, j, l), total


def _lower_central_class(p, moduli, constants):
    """Nilpotence class from the lower central series, via Howell spans of the
    embedded subgroups.  Returns math.inf when the series stalls above zero."""
    rank = len(moduli)
    if rank == 0:
        return 0
    cap = max(moduli)
    big = p ** cap
    scale = [p ** (cap - k) for k in moduli]
    basis = [[int(a == b) for b in range(rank)] for a in range(rank)]

    def brackets_with_basis(rows):
        out = []
        for r in rows:
            for e in basis:
                out.append([x * s % big for x, s in
                            zip(_exact_bracket(constants, r, e), scale)])
        return out

    gamma = howell_form(brackets_with_basis(basis), p, big)
    cls = 1
    while gamma:
        unembedded = [[x // s for x, s in zip(row, scale)] for row in gamma]
        nxt = howell_form(brackets_with_basis(unembedded), p, big)
        if nxt and span_equal(nxt, gamma, p, big):
            return math.inf
        gamma = nxt
        cls += 1
    return cls


def _headroom(constants, work_sizes, truncation):
    """Terms whose sum fits in int64 at the working modulus W, checked to
    cover the kernel and every product: all intermediates stay within
    (W - 1)² · max(S, T), with S the largest column sum of the pair table
    and T the Lyndon words up to the evaluation degree.

    The kernel adds c·D into row m pair by pair, with |D| ≤ (W - 1)², so
    every partial sum of row m is bounded by (W - 1)² times the column sum
    of m's constants, the same bound a product against the column gives.
    Support pruning only leaves out summands that are exactly zero (and a
    negated constant has the same size), so the bound is unchanged."""
    top = max(work_sizes, default=1) - 1
    column = [0] * len(work_sizes)
    for row in constants.values():
        for m, c in row.items():
            column[m] += c
    width = max(column, default=0)
    terms = sum(lyndon_count(n) for n in range(1, truncation + 1))
    bound = top * top * max(width, terms)
    if bound > _INT64_MAX:
        raise IntegerHeadroomExceeded(
            f"working modulus {top + 1}: intermediates reach "
            f"(W-1)^2 * max(S={width}, T={terms}) = {bound} > 2^63 - 1")
    return _INT64_MAX // (top * top) if top else math.inf


def make_ring(p, moduli, brackets, *, lifts=None, label=None) -> FiniteLieRing:
    """Build and fully validate a finite nilpotent Lie ring.

    brackets: {(i, j): {m: int}} with 0-based i < j; constants are read mod
    p^{k_m}.  lifts optionally gives exact p-integral rational representatives
    of the same constants; the uniform evaluation path needs them whenever the
    canonical integers do not already satisfy Jacobi exactly over Z.
    """
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    moduli = tuple(int(k) for k in moduli)
    if any(k < 1 for k in moduli):
        raise ValueError("moduli must be positive exponents")
    rank = len(moduli)
    sizes = [p ** k for k in moduli]

    constants: dict = {}
    for key, row in brackets.items():
        i, j = key
        if not (0 <= i < j < rank):
            raise ValueError(f"bracket key {key} is not 0 <= i < j < rank")
        clean = {}
        for m, c in row.items():
            if not 0 <= m < rank:
                raise ValueError(f"bracket target index {m} out of range")
            c = int(c) % sizes[m]
            if c:
                clean[m] = c
        if clean:
            constants[(i, j)] = clean

    for (i, j), row in constants.items():
        for m, c in row.items():
            if c * p ** min(moduli[i], moduli[j]) % sizes[m]:
                raise WellDefinednessViolation(
                    f"p^min(k{i},k{j}) * c[{i},{j}]^{m} = "
                    f"{c * p ** min(moduli[i], moduli[j])} != 0 mod p^{moduli[m]}")

    for triple, defect in jacobi_defects(rank, constants,
                                         lambda m, x: x % sizes[m]):
        raise JacobiViolation(
            f"basis triple {triple}: Jacobi sum {defect} != 0")

    class_ = _lower_central_class(p, moduli, constants)

    if constants:
        depth = int(min(vp(int(c), p) for row in constants.values()
                        for c in row.values()))
    else:
        depth = max(moduli, default=0)

    need_depth = 1 if p >= 3 else 2
    uniform = False
    if not class_ < p:
        if depth < need_depth:
            raise RegimeViolation(
                f"class {class_} >= p = {p} and uniform depth {depth} < "
                f"{need_depth}: not an admissible ring")
        uniform = True

    working, work_sizes = constants, sizes
    shift = 0
    if uniform and p == 2:
        # CH_2 = [x, y]/2 must be well defined on the moduli
        for (i, j), row in constants.items():
            for m, c in row.items():
                if c * 2 ** min(moduli[i], moduli[j]) % (2 * sizes[m]):
                    raise RegimeViolation(
                        f"half bracket [e{i},e{j}]/2 -> e{m} is not well "
                        f"defined: 2^min(k{i},k{j}) * {c} != 0 mod "
                        f"2^(k{m}+1) for moduli {moduli}")

    if uniform:
        lift_frac = {}
        for key, row in constants.items():
            given = (lifts or {}).get(key, {})
            lift_row = {}
            for m, c in row.items():
                q = _fraction_constant(given.get(m, c))
                if q.denominator % p == 0:
                    raise RegimeViolation(f"lift {q} for {key}->{m} is not p-integral")
                if vp(q - c, p) < moduli[m]:
                    raise RegimeViolation(
                        f"lift {q} for {key}->{m} is not congruent to {c}")
                lift_row[m] = q
            lift_frac[key] = lift_row
        nonzero = [q for row in lift_frac.values() for q in row.values() if q]
        depth_eval = min((vp(q, p) for q in nonzero), default=max(moduli))
        if depth_eval < need_depth:
            raise RegimeViolation(
                f"lifted constants have p-valuation {depth_eval} < {need_depth}")
        for triple, defect in jacobi_defects(rank, lift_frac):
            m = next(m for m, x in enumerate(defect) if x)
            raise RegimeViolation(
                f"constants do not lift to an exact Lie ring: Jacobi "
                f"defect {defect[m]} at triple {triple} coordinate {m}")
        cap = max(moduli)
        gap = Fraction(depth_eval) - Fraction(1, p - 1)
        n_trunc = max(1, -(-cap // gap))        # ceil(cap / gap)
        if n_trunc > DEGREE_CAP:
            raise RegimeViolation(
                f"uniform truncation degree {n_trunc} exceeds cap {DEGREE_CAP}")
        series = bch(int(n_trunc))
        for n in range(2, int(n_trunc) + 1):
            for c in series.component(n).terms.values():
                shift = max(shift, -min(0, int(c.valuation(p))))
        for k in range(2, int(n_trunc)):
            shift = max(shift, int(vp(math.factorial(k), p)))
        precision = p ** (cap + shift)
        working = {key: {m: q.numerator * pow(q.denominator, -1, precision)
                         % precision for m, q in row.items()}
                   for key, row in lift_frac.items()}
        work_sizes = [precision] * rank
        truncation = int(n_trunc)
    else:
        truncation = max(int(class_), 1) if rank else 1

    capacity = _headroom(working, work_sizes, truncation)
    return FiniteLieRing(p, moduli, constants, working, class_, depth, uniform,
                         truncation, work_sizes, shift, capacity, label)


def uniform_quotient(p, rank, constants, r, *, label=None) -> FiniteLieRing:
    """g/p^r·g for a uniform Z_p Lie algebra given by exact rational constants.

    Uniformity demands every constant divisible by p (by 4 when p = 2); the
    constants must satisfy Jacobi exactly.  The result has all moduli equal
    to r and carries the exact constants as its evaluation lifts.
    """
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if r < 1:
        raise ValueError("r must be >= 1")
    need = 1 if p >= 3 else 2
    lift = {}
    for key, row in constants.items():
        i, j = key
        if not (0 <= i < j < rank):
            raise ValueError(f"bracket key {key} is not 0 <= i < j < rank")
        clean = {}
        for m, c in row.items():
            q = _fraction_constant(c)
            if not q:
                continue
            if q.denominator % p == 0:
                raise RegimeViolation(f"constant {q} for {key}->{m} is not p-integral")
            if vp(q, p) < need:
                raise RegimeViolation(
                    f"constant {q} for {key}->{m} has p-valuation < {need}: "
                    f"[g,g] is not inside {p ** need}·g")
            clean[m] = q
        if clean:
            lift[key] = clean

    for triple, defect in jacobi_defects(rank, lift):
        m = next(m for m, x in enumerate(defect) if x)
        raise JacobiViolation(
            f"Jacobi defect {defect[m]} at triple {triple} coordinate {m}")

    big = p ** r
    residues = {key: {m: q.numerator * pow(q.denominator, -1, big) % big
                      for m, q in row.items()}
                for key, row in lift.items()}
    ring = make_ring(p, (r,) * rank, residues, lifts=lift, label=label)
    assert ring.uniform_depth >= need or ring.class_ < p
    return ring


# -- the group -----------------------------------------------------------------

class Grid:
    """The coordinate set ⊕ᵢ Z/sizes_i, lexicographic with the leftmost
    coordinate slowest.

    exp is the identity on coordinates and the pairing Σ a_i x_i / p^{k_i}
    identifies g* with the same vectors, so this one table enumerates both G
    and g*: row i is the i-th group element and the exponent vector of the
    i-th character.  The table is read-only because every holder shares it.
    """

    __slots__ = ("sizes", "elements", "strides", "_mods")

    def __init__(self, sizes):
        self.sizes = tuple(sizes)
        self._mods = np.array(self.sizes, dtype=np.int64)
        axes = np.meshgrid(*[np.arange(s, dtype=np.int64) for s in sizes],
                           indexing="ij")
        self.elements = (np.stack([a.reshape(-1) for a in axes], axis=1)
                         if axes else np.zeros((1, 0), dtype=np.int64))
        self.elements.flags.writeable = False
        self.strides = np.array([math.prod(self.sizes[i + 1:])
                                 for i in range(len(self.sizes))],
                                dtype=np.int64)

    def index_of(self, coords) -> int:
        return int(self.index_batch(coords))

    def index_batch(self, X):
        """Row indices of (..., rank) coordinate vectors, reduced first."""
        return np.mod(np.asarray(X, dtype=np.int64), self._mods) @ self.strides


class LazardGroup:
    """exp(g) as coordinate vectors with CH multiplication; its elements are
    the rows of the ring's grid."""

    __slots__ = ("ring", "size", "elements", "audit_perms", "partitions")

    def __init__(self, ring: FiniteLieRing):
        self.ring = ring
        self.size = ring.order()
        self.elements = ring.grid.elements
        # (seed, samples) -> the (g, conjugation permutation) pairs of
        # kirillov_character's audit, filled on first use
        self.audit_perms = {}
        # (seed, audits) -> the oracle's audited conjugacy-class partition,
        # filled on first use
        self.partitions = {}

    def index_of(self, coords) -> int:
        return self.ring.grid.index_of(coords)

    def index_batch(self, X):
        return self.ring.grid.index_batch(X)

    def coords_of(self, index: int):
        return tuple(int(x) for x in self.elements[index])

    @property
    def identity(self):
        return self.ring.zero()

    def multiply(self, u, v):
        return self.ring.ch_multiply(u, v)

    def inverse(self, u):
        return self.ring.negate(u)

    def conjugate(self, g, x):
        gx = self.ring.ch_multiply(g, x)
        return self.ring.ch_multiply(gx, self.ring.negate(g))

    def conjugate_batch(self, g, X):
        g = np.asarray(g, dtype=np.int64)
        GX = self.ring.ch_batch(g, X)
        return self.ring.ch_batch(GX, np.mod(-g, self.ring._mods))

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"LazardGroup(|G|={self.size}, ring={self.ring!r})"


def check_group_axioms(group: LazardGroup, rng=None, *, assoc_limit=130,
                       trials=10_000) -> dict:
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


# -- adjoint action --------------------------------------------------------------

class AdMap:
    """The additive automorphism x ↦ log(e^g · e^x · e^(-g)) as a matrix;
    row m of the matrix is a residue mod p^{k_m}."""

    __slots__ = ("ring", "element", "matrix")

    def __init__(self, ring, element, matrix):
        self.ring = ring
        self.element = tuple(element)
        self.matrix = matrix

    def apply(self, x):
        return tuple(int(v) for v in self.apply_batch(np.asarray(x)))

    def apply_batch(self, X):
        X = np.asarray(X, dtype=np.int64)
        return np.mod(X @ self.matrix.T, self.ring._mods)

    def __repr__(self):
        return f"AdMap(g={self.element})"


def ad_action(ring: FiniteLieRing, g_elt, rng=None) -> AdMap:
    """Ad(e^g) with its certificate: the conjugation columns must agree with
    the truncated e^(ad g), behave additively, invert against Ad(e^-g), and
    respect the bracket on basis pairs."""
    g = ring.element(g_elt)
    d = ring.rank
    neg_g = ring.negate(g)
    cols = np.zeros((d, d), dtype=np.int64)
    for j in range(d):
        gx = ring.ch_multiply(g, ring.basis(j))
        cols[:, j] = ring.ch_multiply(gx, neg_g)
    expm = ring.exp_ad_matrix(g)
    if not np.array_equal(cols, expm):
        raise AutomorphismCheckFailed(
            f"conjugation by e^{g} disagrees with exp(ad {g})")
    inv_cols = np.zeros((d, d), dtype=np.int64)
    for j in range(d):
        gx = ring.ch_multiply(neg_g, ring.basis(j))
        inv_cols[:, j] = ring.ch_multiply(gx, g)
    prod = np.mod(cols @ inv_cols, ring._mods[:, None])
    if not np.array_equal(prod, np.mod(np.eye(d, dtype=np.int64),
                                       ring._mods[:, None])):
        raise AutomorphismCheckFailed(f"Ad(e^{g}) is not inverted by Ad(e^-{g})")
    amap = AdMap(ring, g, cols)
    for i in range(d):
        ei = amap.apply(ring.basis(i))
        for j in range(i + 1, d):
            lhs = amap.apply(ring.bracket(ring.basis(i), ring.basis(j)))
            rhs = ring.bracket(ei, amap.apply(ring.basis(j)))
            if lhs != rhs:
                raise AutomorphismCheckFailed(
                    f"Ad(e^{g}) breaks the bracket on basis pair ({i}, {j})")
    rng = rng or random.Random(0)
    for _ in range(10):
        x = ring.element([rng.randrange(s) for s in ring.sizes])
        y = ring.element([rng.randrange(s) for s in ring.sizes])
        gx = ring.ch_multiply(g, ring.add(x, y))
        conj = ring.ch_multiply(gx, neg_g)
        if conj != ring.add(amap.apply(x), amap.apply(y)):
            raise AutomorphismCheckFailed(
                f"conjugation by e^{g} is not additive at {x}, {y}")
    return amap


# -- the twist certificate --------------------------------------------------------

# (x, y) pairs per block of the exhaustive twist check: the series and
# e^(ad W) temporaries of a block stay a few MB at any group order
_TWIST_CELLS = 1 << 15


class TwistReport:
    """Outcome of checking (x,y) ↦ (e^(ad φ)x, e^(ad ψ)y) over a domain."""

    __slots__ = ("sum_identity", "bijective", "conjugate", "pairs_checked",
                 "mode")

    def __init__(self, sum_identity, bijective, conjugate, pairs_checked, mode):
        self.sum_identity = sum_identity
        self.bijective = bijective
        self.conjugate = conjugate
        self.pairs_checked = pairs_checked
        self.mode = mode

    def all_passed(self) -> bool:
        return self.sum_identity and self.bijective and self.conjugate

    def __repr__(self):
        return (f"TwistReport(sum={self.sum_identity}, bij={self.bijective}, "
                f"conj={self.conjugate}, pairs={self.pairs_checked}, "
                f"{self.mode})")


def twist_map(ring: FiniteLieRing, pair, *, group=None, rng=None,
              pair_budget=2_000_000, sample=10_000) -> TwistReport:
    """Certify x̃ + ỹ = CH(x, y) with x̃ = e^(ad φ(x,y))x, ỹ = e^(ad ψ(x,y))y,
    that (x,y) ↦ (x̃,ỹ) is injective on the checked domain, and that x̃, ỹ are
    genuine conjugates of x, y.  Exhaustive when |g|² fits the budget.

    The exhaustive domain is evaluated in blocks of x rows of about
    ``_TWIST_CELLS`` pairs, so no |g|² × rank array is formed.  The failure
    reported is the one the whole domain would give: the first pair that
    breaks the sum identity, else the first that breaks the x-twist, else
    the y-twist; collisions are counted over the codes of every pair.
    """
    if pair.certified_to < ring.class_:
        raise ValueError(
            f"pair certified to degree {pair.certified_to} < class {ring.class_}")
    phi, psi = pair.back_substituted()
    group = group or LazardGroup(ring)
    n = group.size
    if n * n <= pair_budget:
        rows = max(1, _TWIST_CELLS // n)
        blocks = ((np.repeat(np.arange(lo, min(n, lo + rows)), n),
                   np.tile(np.arange(n), min(n, lo + rows) - lo))
                  for lo in range(0, n, rows))
        mode = "exhaustive"
    else:
        rng = rng or random.Random(0)
        seen = {(rng.randrange(n), rng.randrange(n)) for _ in range(sample)}
        pairs = np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)
        blocks = [(pairs[:, 0], pairs[:, 1])]
        mode = "sampled"

    twist_failure = {}
    codes = []
    for ia, ib in blocks:
        U, V = group.elements[ia], group.elements[ib]
        phi_vals = ring.evaluate_series_batch(phi, U, V)
        psi_vals = ring.evaluate_series_batch(psi, U, V)
        xt = ring.exp_ad_batch(phi_vals, U)
        yt = ring.exp_ad_batch(psi_vals, V)

        total = ring.ch_batch(U, V)
        bad = np.nonzero(np.any(np.mod(xt + yt, ring._mods) != total,
                                axis=-1))[0]
        if bad.size:
            b = int(bad[0])
            raise PropertyFailed(
                f"x̃ + ỹ != CH(x, y) at x={tuple(U[b])}, y={tuple(V[b])}")

        for W, X, T, tag in ((phi_vals, U, xt, "x"), (psi_vals, V, yt, "y")):
            if tag in twist_failure:
                continue
            WX = ring.ch_batch(W, X)
            conj = ring.ch_batch(WX, np.mod(-W, ring._mods))
            bad = np.nonzero(np.any(conj != T, axis=-1))[0]
            if bad.size:
                b = int(bad[0])
                twist_failure[tag] = (
                    f"{tag}-twist is not the conjugation by exp of its own "
                    f"series at x={tuple(U[b])}, y={tuple(V[b])}")
        codes.append(group.index_batch(xt) * n + group.index_batch(yt))
    for tag in ("x", "y"):
        if tag in twist_failure:
            raise PropertyFailed(twist_failure[tag])

    codes = np.concatenate(codes)
    distinct = 1 + np.count_nonzero(np.diff(np.sort(codes)))
    if distinct != len(codes):
        raise PropertyFailed(
            f"twist map collides: {len(codes) - distinct} duplicate images")

    return TwistReport(True, True, True, len(codes), mode)


# -- subrings ---------------------------------------------------------------------

class Subring:
    """Bracket-closed additive subgroup with its induced FiniteLieRing.

    The additive span of the generators is kept as a Howell basis of the
    embedded copy inside (Z/p^cap)^rank; each basis row contributes a cyclic
    factor whose order is read off the pivot."""

    __slots__ = ("ring", "basis_coords", "orders", "induced", "_rows", "label")

    def __init__(self, ring: FiniteLieRing, generators, *, label=None):
        self.ring = ring
        self.label = label
        p, big = ring.p, ring.big
        rows = [ring.embed(ring.element(gen)) for gen in generators]
        # basis realizing the cyclic decomposition: coordinates mod the row
        # orders form a group isomorphism, which Howell pivots cannot promise
        self._rows = cyclic_basis(rows, p, big) if rows else []
        self.basis_coords = [ring.unembed(r) for r in self._rows]
        caps = []
        for r in self._rows:
            v = min(int(vp(x, p)) for x in r if x)
            caps.append(ring.cap - v)
        self.orders = tuple(caps)

        consts: dict = {}
        for i in range(len(self.basis_coords)):
            for j in range(i + 1, len(self.basis_coords)):
                val = ring.bracket(self.basis_coords[i], self.basis_coords[j])
                sol = solve_mod(self._rows, ring.embed(val), p, big)
                if sol is None:
                    raise SubringNotClosed(
                        f"[b_{i}, b_{j}] = {val} is outside the span")
                row = {}
                for m, c in enumerate(sol):
                    c = c % p ** self.orders[m]
                    if c:
                        row[m] = c
                if row:
                    consts[(i, j)] = row
        self.induced = make_ring(p, self.orders, consts,
                                 label=f"{label or 'subring'}[induced]")

    def contains(self, x) -> bool:
        if not self._rows:
            return not any(self.ring.element(x))
        return solve_mod(self._rows, self.ring.embed(self.ring.element(x)),
                         self.ring.p, self.ring.big) is not None

    def express(self, x):
        """Coordinates of x in the subring basis (canonical mod the orders)."""
        if not self._rows:
            if any(self.ring.element(x)):
                raise ValueError(f"{x} is not in the trivial subring")
            return ()
        sol = solve_mod(self._rows, self.ring.embed(self.ring.element(x)),
                        self.ring.p, self.ring.big)
        if sol is None:
            raise ValueError(f"{x} is not in the subring")
        return tuple(c % self.ring.p ** k for c, k in zip(sol, self.orders))

    def ambient_indices(self):
        """Index in the ambient ring's grid of each element of the induced
        ring, taken in the induced ring's grid order."""
        basis = np.array(self.basis_coords, dtype=np.int64).reshape(
            len(self.basis_coords), self.ring.rank)
        return self.ring.grid.index_batch(self.induced.grid.elements @ basis)

    def embed_coords(self, coords):
        """Subring coordinates -> ambient ring element."""
        out = self.ring.zero()
        for c, b in zip(coords, self.basis_coords):
            out = self.ring.add(out, self.ring.scale(b, int(c)))
        return out

    def scaled(self, alpha: int) -> "Subring":
        return Subring(self.ring,
                       [self.ring.scale(b, alpha) for b in self.basis_coords],
                       label=f"{alpha}*({self.label or 'subring'})")

    def restrict_dual(self, exponents):
        """Restriction of a dual character of g (given by its exponent vector)
        to a character of the subring in its own basis."""
        ring = self.ring
        out = []
        for b, kappa in zip(self.basis_coords, self.orders):
            e_val = sum(int(a) * int(c) * ring.p ** (ring.cap - k)
                        for a, c, k in zip(exponents, b, ring.moduli)) % ring.big
            div = ring.p ** (ring.cap - kappa)
            if e_val % div:
                raise ValueError("character does not restrict: order mismatch")
            out.append(e_val // div % ring.p ** kappa)
        return tuple(out)

    def __repr__(self):
        return (f"Subring(rank={len(self.basis_coords)}, "
                f"orders={self.orders}, of={self.ring!r})")
