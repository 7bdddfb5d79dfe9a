"""Finite nilpotent Lie rings and the groups they carry under CH multiplication.

A ring lives on ⊕ᵢ Z/p^{kᵢ} with bracket structure constants given for basis
pairs i < j and extended antisymmetrically.  Validation covers primality,
well-definedness of the constants against the mixed moduli, the Jacobi
identity on basis triples, nilpotence, and membership in one of the two
regimes where CH multiplication makes the underlying set a group:

  * class < p: every CH coefficient that survives truncation has a p-unit
    denominator, so evaluation needs no extra precision;
  * uniform: [g, g] ⊆ p·g (⊆ 4·g when p = 2) with structure constants that
    lift to an exact Lie ring over Z_(p).  Evaluation then runs at working
    precision p^(K+s) and divides each term's p-denominator out exactly;
    a series whose denominators need more than p^s is refused.
    At p = 2 the half bracket CH_2 = [x, y]/2 must also be well defined on
    the moduli: c·2^min(k_i,k_j) ≡ 0 mod 2^(k_m+1) for each constant.

Groups are the same coordinate vectors with CH as multiplication; exp and
log are identity maps on coordinates.  One Grid, built per ring on first
use, enumerates that coordinate set for G and, through the pairing
Σ a_i x_i / p^{k_i}, for the dual g*.

Each ring has one working modulus W = p^(K+s), with K the largest modulus
exponent and s the uniform shift (0 at class < p).  The kernel reduces
every intermediate by W and only its output by the canonical moduli; at
class < p the constants are well defined on the moduli, so the output does
not depend on the representatives mod W.  The constants are held once, as
a pair table: the pairs i < j with a nonzero constant, each with its
constants c at targets m (canonical residues, or in the uniform regime
residues of the lifts mod W).  One kernel evaluates Lie series over that
table, and every product on elements is such a series: bracket_batch the
one-term series [x, y], ch_batch CH, exp_ad_batch e^(ad W)X = Σ x^k y / k!
at x = W, y = X (k < the CH truncation, which is the class at class < p;
the standard bracketing of the Lyndon word x^k y is (ad x)^k y).  It runs
coordinate-major: batches of (..., rank) vectors enter as C-contiguous
(rank, ...) arrays of the plan's type (below), so coordinate i of the
whole batch is one contiguous row U[i] and a single vector against a batch
broadcasts without copies.  Per pair it forms D = U[i]·V[j] − U[j]·V[i]
once and adds c·D into row m; rows are reduced by the scalar W as
x − x // W · W, which numpy computes far faster than np.mod.  An operand
is reduced, in int64 and into a new array, only when some entry lies
outside [0, W); grid elements and the kernel's own outputs lie inside.
For an operand in range the reduction is the identity, so the outputs are
bit-identical either way, and the test costs one min and one max per
operand instead of a division over every entry.  Operands are never
written to: grid elements are read-only.

Plans carry static row supports.  x and y can be nonzero on every row; a
bracketing step keeps only the table pairs (i, j) for which U[i]·V[j] or
U[j]·V[i] can be nonzero given its operands' supports, forms only those
products, and its support is the union of the kept pairs' targets.  In a
nilpotent ring nested brackets reach fewer and fewer rows, so each bracket
value is held only on its support rows, the term sum adds each term into
its own rows of one output, and only rows some term reaches are reduced.
The pruning drops only summands that are exactly zero, so values, and the
headroom bound below, are those of the full table.  Validation (Jacobi,
the lower central series) brackets the same pairs in exact integer or
Fraction arithmetic.

Arithmetic on elements runs in the plan's type, so make_ring checks
headroom instead of assuming it.  With W the working modulus, S the
largest column sum of the table and T the number of terms a plan sums
(at most the Lyndon words up to the evaluation degree), every intermediate
is at most (W − 1)² · max(S, T): row m of a bracket sums c·D over the pairs
that reach m, and a Lie series sums T products of a residue and a
multiplier, reducing once at the end.  A ring whose bound exceeds
2^63 − 1 is rejected with IntegerHeadroomExceeded, and so is a longer
series evaluated later.  The plan's type is the narrowest of int16, int32
and int64 whose maximum covers the plan's own bound, (W − 1)² · max(S, T),
and also W, which bounds every p^a a coefficient may divide out, so every
constant, multiplier and modulus fits it.  Operands are reduced in int64 first
(_canonical) and only then narrowed, so the cast never wraps; results are
widened back to int64, so callers see int64 only.

twist_map certifies the twist (x, y) ↦ (x̃, ỹ) of the character formula:
at class c < p on the degree-c simplex, whose points prove it at every
pair, and otherwise on index pairs whose images' collisions it counts.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from .errors import (EvaluationNotIntegral, IntegerHeadroomExceeded,
                     JacobiViolation, PropertyFailed, RegimeViolation,
                     SubringNotClosed, WellDefinednessViolation)
from .freelie import (DEGREE_CAP, bch, is_prime, lyndon_count,
                      lyndon_words, standard_factorization, vp)
from .modlin import cyclic_basis, howell_form, solve_mod, span_equal


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
        left, right = standard_factorization(w)
        visit(left)
        visit(right)
        steps.append((w, left, right))

    for w in sorted(words, key=len):
        visit(w)
    return steps


def _poly_terms(poly):
    """LiePoly -> list of (lyndon word, Fraction coefficient)."""
    return [(lyndon_words(degree)[index], c)
            for (degree, index), c in sorted(poly.terms.items())]


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
                 "uniform", "_mods", "_canon", "_work", "_table", "_shift",
                 "_square", "_width", "_capacity", "_ch", "_exp_ad",
                 "_plan_cache", "_grid")

    def __init__(self, p, moduli, constants, working, class_, uniform_depth,
                 uniform, ch_truncation, work, shift, headroom, label):
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
        self._work = work
        self._table = _triple_table(working)
        self._shift = shift
        # (W − 1)², S and the terms whose sum fits in int64 (_headroom)
        self._square, self._width, self._capacity = headroom
        self._ch = None
        self._plan_cache = {}
        # e^(ad W)X is the series Σ x^k y / k! at x = W, y = X
        self._exp_ad = self._term_plan(
            [((0,) * k + (1,), Fraction(1, math.factorial(k)))
             for k in range(ch_truncation)])
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

    def basis(self, i: int):
        e = [0] * self.rank
        e[i] = 1
        return tuple(e)

    def scale(self, u, t: int):
        return self.element([t * x for x in u])

    # -- bracket -------------------------------------------------------------

    def _kernel_type(self, width):
        """The narrowest integer type whose maximum covers (W − 1)² · width
        and the working modulus W: the type of a plan summing at most
        `width` multiples of a bracket or product."""
        bound = max(self._square * width, self._work)
        return next((t for t in _KERNEL_TYPES if bound <= np.iinfo(t).max),
                    np.int64)

    def bracket_batch(self, U, V):
        """[U, V] for (..., rank) arrays: the one-term plan [x, y]."""
        return self._eval_terms(self._term_plan(_BRACKET), U, V)

    def bracket(self, u, v):
        return tuple(int(x) for x in self.bracket_batch(u, v))

    # -- CH multiplication ---------------------------------------------------

    def _coefficient(self, q: Fraction):
        """(q, a, multiplier): a is the p-adic valuation of q's denominator,
        the multiplier is q·p^a reduced by the working modulus."""
        den = q.denominator
        a = 0
        while den % self.p == 0:
            den //= self.p
            a += 1
        return q, a, q.numerator * pow(den, -1, self._work) % self._work

    def _step(self, left, right):
        """(pairs, support) for [U, V] with U nonzero only on the rows
        `left` and V only on the rows `right` (None: every row).

        A table pair (i, j) is kept when U[i]·V[j] or U[j]·V[i] can be
        nonzero; when only U[j]·V[i] can, it is kept as (j, i) with its
        constants negated, so the kernel forms the one product.  The support
        is the sorted union of the kept pairs' targets, and each target is
        named by its slot in the support.
        """
        every = range(self.rank)
        left = set(every if left is None else left)
        right = set(every if right is None else right)
        kept = []
        for i, j, targets in self._table:
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
        return pairs, support

    def _term_plan(self, terms):
        """Bracketing steps for the terms' words with their row supports,
        and each term's word with its coefficient worked out once; cached
        per tuple of terms.

        x and y have every row; each step's pruned pairs and support come
        from its children's supports (_step), so a word's support holds
        every row its bracket can be nonzero on.  The plan also keeps the
        rows some term reaches, None for all: the only rows the sum reduces;
        and the plan's type (_kernel_type over the terms), in which its
        multipliers are held.

        A coefficient may divide out p^a only for a <= the ring's shift s
        (s = 0 at class < p), so p^a <= p^s <= W and the type covers it;
        a larger a raises EvaluationNotIntegral here, before any value.
        """
        key = tuple(terms)
        plan = self._plan_cache.get(key)
        if plan is None:
            if len(key) > self._capacity:
                raise IntegerHeadroomExceeded(
                    f"{len(key)} terms at working modulus {self._work} "
                    f"exceed the {self._capacity} whose sum fits in int64")
            supports = {(0,): None, (1,): None}
            steps = []
            for w, left, right in _plan_steps({w for w, _ in key
                                               if len(w) > 1}):
                pairs, supports[w] = self._step(supports[left],
                                                supports[right])
                steps.append((w, left, right, pairs, supports[w]))
            terms = [(w, self._coefficient(q), supports[w]) for w, q in key]
            for _, (q, a, _), _ in terms:
                if a > self._shift:
                    raise EvaluationNotIntegral(
                        f"coefficient {q} needs p^{a} beyond working precision")
            dtype = self._kernel_type(max(self._width, len(key)))
            reached = set().union(*(range(self.rank) if support is None
                                    else support for *_, support in terms))
            reached = (None if len(reached) == self.rank
                       else tuple(sorted(reached)))
            plan = (steps, terms, reached, dtype)
            self._plan_cache[key] = plan
        return plan

    def _scaled(self, vals, coefficient):
        """vals·q for reduced coordinate-major vals, unreduced: callers sum
        the products and reduce once.  A p in q's denominator is divided
        out of vals exactly first, which keeps the product below (W − 1)²."""
        q, a, mult = coefficient
        if a:
            quot = vals // self.p ** a
            if not np.array_equal(quot * self.p ** a, vals):
                raise EvaluationNotIntegral(
                    f"value not divisible by p^{a} for coefficient {q}")
            vals = quot
        return vals if mult == 1 else vals * mult

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

        U, V: (..., rank) arrays, each reduced by the working modulus only
        when some entry lies outside its range (_canonical), then cast to
        the plan's type.  Brackets run at the working modulus: the lift
        table in the uniform regime, the canonical constants otherwise.
        Each bracket value is held on its support rows only, as a compact
        array for the term sum and as a dict of row views for the brackets
        that take it as an operand.  The sum is widened to int64 on return.
        """
        steps, terms, reached, dtype = plan
        U, V, shape, batch = _coordinate_major(U, V)
        values = {(0,): _canonical(U, self._work, dtype),
                  (1,): _canonical(V, self._work, dtype)}
        rows = dict(values)
        for w, left, right, pairs, support in steps:
            values[w] = _bracket(pairs, rows[left], rows[right], self._work,
                                 np.zeros((len(support),) + batch, dtype))
            rows[w] = dict(zip(support, values[w]))
        out = np.zeros((self.rank,) + batch, dtype=dtype)
        for w, coefficient, support in terms:
            self._add_term(out, values[w], coefficient, support)
        out = _reduce(out, self._canon, rows=reached)
        return _row_major(out.astype(np.int64, copy=False), shape)

    def ch_batch(self, U, V):
        if self._ch is None:
            self._ch = self._term_plan(_poly_terms(bch(self.ch_truncation)))
        return self._eval_terms(self._ch, U, V)

    def evaluate_series_batch(self, series, U, V):
        return self._eval_terms(self._term_plan(_poly_terms(series)), U, V)

    # -- adjoint machinery ---------------------------------------------------

    def exp_ad_batch(self, W, X):
        """e^(ad W) applied to X, both (..., rank) arrays."""
        return self._eval_terms(self._exp_ad, W, X)

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
# the one term of FiniteLieRing.bracket_batch: [x, y] with coefficient 1
_BRACKET = (((0, 1), Fraction(1)),)
# the kernel's integer types, narrowest first (FiniteLieRing._kernel_type)
_KERNEL_TYPES = (np.int16, np.int32, np.int64)


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
    constant, in key order, as (i, j, ((m, c), ...)) with int constants,
    which FiniteLieRing._step prunes into a step's pair list."""
    table = []
    for (i, j), row in sorted(constants.items()):
        targets = tuple((m, int(c)) for m, c in sorted(row.items()) if c)
        if targets:
            table.append((i, j, targets))
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

    Each reduction is x − x // m · m, in X's own type.  That equals
    np.mod(x, m) for every x of a signed integer type of width b and every
    m > 0 the type holds, even where (x // m) · m wraps: x // m is exact,
    b-bit arithmetic is exact mod 2^b and the true result lies in [0, m),
    which the type holds.
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


def _in_range(X, modulus):
    """Whether every entry of the coordinate-major X lies in [0, m) for
    its row's modulus m: modulus[r] for row r, or an int for every row.
    Reads X's extremes only: no division and no copy."""
    if not X.size:
        return True
    if X.min() < 0:
        return False
    if isinstance(modulus, int):
        return X.max() < modulus
    return bool(np.all(X.max(axis=tuple(range(1, X.ndim))) < modulus))


def _canonical(X, modulus, dtype):
    """X mod the modulus as a C-contiguous array of the given type: X
    itself when it already is one and is reduced by the modulus
    (_in_range), else a new array.  An entry outside the range is reduced
    in int64 before the cast, so a cast to a narrower type never wraps;
    X is never written to."""
    if not _in_range(X, modulus):
        X = _reduce(X, modulus, np.empty(X.shape, np.int64))
    return np.asarray(X, dtype=dtype, order="C")


def negate(X, mods):
    """−X for canonical (..., rank) residues X: m − x with the coordinate's
    modulus m, and 0 kept at 0, so the result is canonical too."""
    neg = mods - X
    neg[neg == mods] = 0
    return neg


def _bracket(pairs, U, V, modulus, out):
    """[U, V] over a pair list, added into out, a zeroed coordinate-major
    array whose rows broadcast against U's and V's; then out is reduced by
    the int modulus and returned.

    U and V are indexed by coordinate: arrays with every row, or dicts of
    the rows a value can be nonzero on.  Each pair (i, j, both, targets)
    forms D = U[i]·V[j], minus U[j]·V[i] when both, once and adds c·D into
    out[slot] for each (slot, c) of its targets.  The pairs are a plan
    step's pruned pairs, whose slots index the step's support
    (FiniteLieRing._step), so every row of out is some pair's target.
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
    return _reduce(out, modulus)


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


def _headroom(constants, rank, work, truncation):
    """((W - 1)², S, terms whose sum fits in int64) at the working modulus
    W, checked to cover the kernel and every product: all intermediates
    stay within (W - 1)² · max(S, T), with S the largest column sum of the
    pair table and T the Lyndon words up to the evaluation degree.

    The kernel adds c·D into row m pair by pair, with |D| ≤ (W - 1)², so
    every partial sum of row m is bounded by (W - 1)² times the column sum
    of m's constants, the same bound a product against the column gives.
    Support pruning only leaves out summands that are exactly zero (and a
    negated constant has the same size), so the bound is unchanged.  A
    plan whose own bound, (W - 1)² · max(S, its terms), fits a narrower
    type runs in that type (FiniteLieRing._kernel_type): every true
    intermediate lies within the bound, so none wraps, and the reduction
    is exact in any width (_reduce)."""
    top = work - 1
    column = [0] * rank
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
    return top * top, width, _INT64_MAX // (top * top) if top else math.inf


def min_uniform_depth(p: int) -> int:
    """The least p-valuation of a uniform ring's constants: [g, g] ⊆ p·g,
    or ⊆ 4·g at p = 2."""
    return 2 if p == 2 else 1


def make_ring(p, moduli, brackets, *, lifts=None, label=None) -> FiniteLieRing:
    """Build and fully validate a finite nilpotent Lie ring.

    brackets: {(i, j): {m: int}} with 0-based i < j; constants are read mod
    p^{k_m}.  lifts optionally gives exact p-integral rational representatives
    of the same constants; the uniform evaluation path needs them whenever the
    canonical integers do not already satisfy Jacobi exactly over Z.
    """
    if not is_prime(p):
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

    need_depth = min_uniform_depth(p)
    uniform = False
    if not class_ < p:
        if depth < need_depth:
            raise RegimeViolation(
                f"class {class_} >= p = {p} and uniform depth {depth} < "
                f"{need_depth}: not an admissible ring")
        uniform = True

    working, work = constants, p ** max(moduli, default=0)
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
        for c in bch(int(n_trunc)).terms.values():
            shift = max(shift, -min(0, int(vp(c, p))))
        for k in range(2, int(n_trunc)):
            shift = max(shift, int(vp(math.factorial(k), p)))
        work = p ** (cap + shift)
        working = {key: {m: q.numerator * pow(q.denominator, -1, work) % work
                         for m, q in row.items()}
                   for key, row in lift_frac.items()}
        truncation = int(n_trunc)
    else:
        truncation = max(int(class_), 1) if rank else 1

    headroom = _headroom(working, rank, work, truncation)
    return FiniteLieRing(p, moduli, constants, working, class_, depth, uniform,
                         truncation, work, shift, headroom, label)


def uniform_quotient(p, rank, constants, r, *, label=None) -> FiniteLieRing:
    """g/p^r·g for a uniform Z_p Lie algebra given by exact rational constants.

    Uniformity demands every constant divisible by p (by 4 when p = 2); the
    constants must satisfy Jacobi exactly.  The result has all moduli equal
    to r and carries the exact constants as its evaluation lifts.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if r < 1:
        raise ValueError("r must be >= 1")
    need = min_uniform_depth(p)
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

    def index_batch(self, X):
        """Row indices of (..., rank) coordinate vectors, reduced first when
        some coordinate lies outside its range."""
        X = np.asarray(X, dtype=np.int64)
        if not _in_range(X.T, self.sizes):
            X = np.mod(X, self._mods)
        return X @ self.strides

    def linear_perm(self, B) -> np.ndarray:
        """Row index of x B mod the sizes for every row x of the grid.

        The images are built coordinate-major, one grid coordinate at a
        time, the leftmost slowest: the images of the rows so far plus
        t B[j] for t < sizes[j].  A table entry t B[j, k] mod m_k starts
        from a product of two residues, below (m - 1)^2 for the largest size
        m, and each step adds two canonical residues and subtracts m_k where
        the sum reaches it, so no intermediate exceeds (m - 1)^2 < 2^63:
        make_ring's headroom check bounds (W - 1)^2 for a working modulus
        W >= m.
        """
        rank = len(self.sizes)
        mods = self._mods[:, None]
        out = np.zeros((rank, 1), dtype=np.int64)
        for j, size in enumerate(self.sizes):
            steps = B[j][:, None] * np.arange(size, dtype=np.int64) % mods
            out = (out[:, :, None] + steps[:, None, :]).reshape(rank, -1)
            np.subtract(out, mods, out=out, where=out >= mods)
        return self.strides @ out


class LazardGroup:
    """exp(g) as coordinate vectors with CH multiplication; its elements are
    the rows of the ring's grid."""

    __slots__ = ("ring", "size", "elements", "certificate")

    def __init__(self, ring: FiniteLieRing):
        self.ring = ring
        self.size = ring.order()
        self.elements = ring.grid.elements
        # the oracle's conjugation certificate, the one ConjClassPartition:
        # the generators' matrices, the classes and their inverse classes,
        # built on first use (oracle.conjugation_certificate), never here
        self.certificate = None

    def conjugate_batch(self, g, X):
        g = np.asarray(g, dtype=np.int64)
        GX = self.ring.ch_batch(g, X)
        return self.ring.ch_batch(GX, negate(g, self.ring._mods))

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"LazardGroup(|G|={self.size}, ring={self.ring!r})"


# -- the twist certificate --------------------------------------------------------

# pairs per block of the pairs twist_map checks one by one: the series and
# e^(ad W) temporaries of a block stay a few MB at any group order
_TWIST_CELLS = 1 << 15
# twist_map covers every pair when |g|^2 is at most the budget, else it
# checks this many pairs drawn from random.Random(0)
TWIST_PAIR_BUDGET = 2_000_000
TWIST_SAMPLE = 10_000


def twist_map(group: LazardGroup, pair) -> tuple[int, str]:
    """Certify x̃ + ỹ = CH(x, y) with x̃ = e^(ad φ(x,y))x, ỹ = e^(ad ψ(x,y))y,
    that x̃, ỹ are genuine conjugates of x, y, and that (x,y) ↦ (x̃,ỹ) is
    injective.  Returns (pairs covered, "exhaustive" or "sampled"); every
    failure raises PropertyFailed.

    Within ``TWIST_PAIR_BUDGET`` pairs every pair is covered.  At class
    c < p the identities are checked on the simplex {j ∈ N^(2·rank) :
    |j| ≤ c} in lexicographic order, each point split into x and y, which
    proves them at every pair; injectivity is proved, not counted (below).
    A uniform ring has all |g|² pairs checked.  Above the budget, the
    ``TWIST_SAMPLE`` seeded pairs are checked in either regime.  Pairs
    checked one by one run in blocks of ``_TWIST_CELLS`` in row-major
    (x, y) order, and collisions among their images are counted.  The
    failure reported is the first checked pair that breaks the sum
    identity, else the x-twist, else the y-twist.

    Polynomial lemma.  At class c < p every checked quantity (x̃ + ỹ −
    CH(x, y), and x̃ minus the conjugate of x by exp φ, likewise for y) is
    a Lie polynomial in x, y with p-unit denominators, and brackets longer
    than c vanish on the ring.  So each coordinate, mod its modulus p^k, is
    a polynomial P of degree ≤ c in the 2·rank coordinates with Z_(p)
    coefficients, and Newton's expansion P(x) = Σ_{|k|≤c} Δ^k P(0)·C(x, k)
    holds, C(x, k) = Π C(x_i, k_i).  Each Δ^k P(0) is an integer combination
    of values of P on the simplex, and each C(x, k) an integer, so
    P ≡ 0 mod p^k on the simplex makes P ≡ 0 mod p^k everywhere.  The
    simplex points are canonical residues, since c < p.

    Injectivity.  φ and ψ have no constant term, so x̃ − x and ỹ − y are
    Lie words of length ≥ 2 with p-unit coefficients.  If (x, y) and
    (x′, y′) have one image and agree modulo γ_j, the j-th term of the
    lower central series, each such word moves by an element of
    [γ_j, g] ⊆ γ_(j+1), so x − x′ = (x̃′ − x′) − (x̃ − x) and y − y′ lie in
    γ_(j+1).  From γ_1 = g to γ_(c+1) = 0 this gives x = x′ and y = y′.
    """
    ring = group.ring
    if pair.certified_to < ring.class_:
        raise ValueError(
            f"pair certified to degree {pair.certified_to} < class {ring.class_}")
    phi, psi = pair.phi, pair.psi
    if not ring.uniform:
        # the words longer than the class vanish on the ring; the kernel
        # refuses a p in the denominators of the others only
        phi, psi = (s.with_max_degree(ring.class_) for s in (phi, psi))
    n = group.size
    if n * n > TWIST_PAIR_BUDGET:
        rng = random.Random(0)
        index = np.array(sorted({rng.randrange(n) * n + rng.randrange(n)
                                 for _ in range(TWIST_SAMPLE)}))
        mode = "sampled"
    elif ring.uniform:
        index, mode = np.arange(n * n), "exhaustive"
    else:
        points = np.array(_simplex(2 * ring.rank, ring.class_), np.int64)
        for _ in _twist_images(group, phi, psi,
                               [np.split(points, 2, axis=1)]):
            pass        # injective by proof: no image is counted
        return n * n, "exhaustive"

    E = group.elements
    index_of = ring.grid.index_batch
    blocks = (np.divmod(index[lo:lo + _TWIST_CELLS], n)
              for lo in range(0, len(index), _TWIST_CELLS))
    codes = np.concatenate([
        index_of(xt) * n + index_of(yt) for xt, yt in _twist_images(
            group, phi, psi, ((E[x], E[y]) for x, y in blocks))])
    distinct = 1 + np.count_nonzero(np.diff(np.sort(codes)))
    if distinct != len(codes):
        raise PropertyFailed(
            f"twist map collides: {len(codes) - distinct} duplicate images")
    return len(codes), mode


def _simplex(m, d):
    """The C(m + d, d) points j of N^m with |j| ≤ d, as tuples in
    lexicographic order."""
    if m == 0:
        return [()]
    return [(a,) + rest for a in range(d + 1) for rest in _simplex(m - 1, d - a)]


def _twist_images(group, phi, psi, blocks):
    """Check the twist on each block (U, V) of (k, rank) pair arrays and
    yield its images (x̃, ỹ).  A sum identity failure raises at once; the
    first x-twist failure, else the first y-twist failure, raises after
    the last block."""
    ring = group.ring
    failures = {}
    for U, V in blocks:
        phi_vals = ring.evaluate_series_batch(phi, U, V)
        psi_vals = ring.evaluate_series_batch(psi, U, V)
        xt = ring.exp_ad_batch(phi_vals, U)
        yt = ring.exp_ad_batch(psi_vals, V)

        # x̃ and ỹ are canonical, so one subtraction reduces their sum
        twisted = xt + yt
        np.subtract(twisted, ring._mods, out=twisted,
                    where=twisted >= ring._mods)
        bad = _witness(twisted != ring.ch_batch(U, V), U, V)
        if bad:
            raise PropertyFailed(f"x̃ + ỹ != CH(x, y) at {bad}")

        for W, X, T, tag in ((phi_vals, U, xt, "x"), (psi_vals, V, yt, "y")):
            if tag not in failures:
                bad = _witness(group.conjugate_batch(W, X) != T, U, V)
                if bad:
                    failures[tag] = (
                        f"{tag}-twist is not the conjugation by exp of its "
                        f"own series at {bad}")
        yield xt, yt
    for tag in ("x", "y"):
        if tag in failures:
            raise PropertyFailed(failures[tag])


def _witness(differs, U, V):
    """"x=(...), y=(...)" in plain ints at the first pair whose row of the
    (k, rank) mask holds anywhere; None when no row does."""
    bad = np.flatnonzero(np.any(differs, axis=-1))
    if not bad.size:
        return None
    return f"x={tuple(U[bad[0]].tolist())}, y={tuple(V[bad[0]].tolist())}"


# -- subrings ---------------------------------------------------------------------

class Subring:
    """Bracket-closed additive subgroup with its induced FiniteLieRing.

    The additive span of the generators is kept as a cyclic basis
    (``modlin.cyclic_basis``) of the embedded copy inside (Z/p^cap)^rank;
    each basis row contributes a cyclic factor whose order is read off the
    row's least valuation.  ``basis_coords`` holds the rows b_j in ambient
    coordinates: the induced ring's element c is sum_j c_j b_j
    (``ambient_indices``), and its dual is the image of the ambient one
    under ``orbitmethod.restriction_indices``.  ``label`` names the induced
    ring."""

    __slots__ = ("ring", "basis_coords", "orders", "induced")

    def __init__(self, ring: FiniteLieRing, generators, *, label=None):
        self.ring = ring
        p, big = ring.p, ring.big
        rows = [ring.embed(ring.element(gen)) for gen in generators]
        # basis realizing the cyclic decomposition: coordinates mod the row
        # orders form a group isomorphism, which Howell pivots cannot promise
        rows = cyclic_basis(rows, p, big) if rows else []
        self.basis_coords = [ring.unembed(r) for r in rows]
        caps = []
        for r in rows:
            v = min(int(vp(x, p)) for x in r if x)
            caps.append(ring.cap - v)
        self.orders = tuple(caps)

        consts: dict = {}
        for i in range(len(self.basis_coords)):
            for j in range(i + 1, len(self.basis_coords)):
                val = ring.bracket(self.basis_coords[i], self.basis_coords[j])
                sol = solve_mod(rows, ring.embed(val), p, big)
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

    def ambient_indices(self):
        """Index in the ambient ring's grid of each element of the induced
        ring, taken in the induced ring's grid order."""
        basis = np.array(self.basis_coords, dtype=np.int64).reshape(
            len(self.basis_coords), self.ring.rank)
        return self.ring.grid.index_batch(self.induced.grid.elements @ basis)

    def __repr__(self):
        return (f"Subring(rank={len(self.basis_coords)}, "
                f"orders={self.orders}, of={self.ring!r})")
