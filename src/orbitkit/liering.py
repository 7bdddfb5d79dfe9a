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

Groups are the same coordinate vectors with CH as multiplication; exp and
log are identity maps on coordinates.  One Grid, built per ring on first
use, enumerates that coordinate set for G and, through the pairing
Σ a_i x_i / p^{k_i}, for the dual g*.

The constants are held once, as a triple table: the pairs i < j with a
nonzero row, and for each pair its constants c at targets m (canonical
residues, or in the uniform regime residues of the lifts mod the working
precision).  One kernel brackets over that table,
D = U[..., I]·V[..., J] − U[..., J]·V[..., I], then D @ C and one reduction,
and serves every bracket, adjoint matrix and CH evaluation on elements.
Validation (Jacobi, the lower central series) brackets the same triples in
exact integer or Fraction arithmetic.

Arithmetic on elements is int64, so make_ring checks headroom instead of
assuming it.  With W the largest working modulus, S the largest column sum
of the table and T the number of Lyndon words up to the evaluation degree
(the most terms a product sums), every intermediate is at most
(W − 1)² · max(S, T): D @ C weights differences of products of two
residues by a column of the table, and a Lie series sums at most T products
of a residue and a multiplier, reducing once at the end.  A ring whose bound exceeds 2^63 − 1 is rejected with
IntegerHeadroomExceeded, and so is a longer series evaluated later.
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
    words, children before parents."""
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
                 "uniform", "_mods", "_canon", "_work", "_table", "_shift",
                 "_capacity", "_ch", "_exp_ad", "_plan_cache", "_grid")

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
        self._table = _triple_table(self.rank, working)
        self._shift = shift
        self._capacity = capacity
        self._ch = None
        self._exp_ad = [self._coefficient(Fraction(1, math.factorial(k)))
                        for k in range(1, self._exp_ad_limit() + 1)]
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
        return _bracket(self._table, np.asarray(U, dtype=np.int64),
                        np.asarray(V, dtype=np.int64), self._canon)

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
        if isinstance(self._work, int):
            return q, a, q.numerator * pow(den, -1, self._work) % self._work
        mult = np.array([q.numerator * pow(den, -1, m) % m
                         for m in self._work.tolist()], dtype=np.int64)
        return q, a, mult

    def _term_plan(self, terms):
        """Bracketing steps for the terms' words, and each term's word with
        its coefficient worked out once; cached per tuple of terms."""
        key = tuple(terms)
        plan = self._plan_cache.get(key)
        if plan is None:
            if len(key) > self._capacity:
                raise IntegerHeadroomExceeded(
                    f"{len(key)} terms at working modulus "
                    f"{int(np.max(self._work))} exceed the {self._capacity} "
                    f"whose sum fits in int64")
            steps = _plan_steps({w for w, _ in key if len(w) > 1})
            plan = (steps, [(w, self._coefficient(q)) for w, q in key])
            self._plan_cache[key] = plan
        return plan

    def _scaled(self, vals, coefficient):
        """vals·q for reduced vals.  A p-unit q gives the unreduced product,
        which callers sum and reduce once; a p in the denominator is divided
        out exactly and the result reduced."""
        q, a, mult = coefficient
        if not a:
            return vals * mult
        if self.uniform and a > self._shift:
            raise EvaluationNotIntegral(
                f"coefficient {q} needs p^{a} beyond working precision")
        if np.any(vals % self.p ** a):
            raise EvaluationNotIntegral(
                f"value not divisible by p^{a} for coefficient {q}")
        return vals // self.p ** a * mult % self._work

    def _eval_terms(self, plan, U, V):
        """Σ coeff · (bracketing word)(U, V) reduced to canonical coordinates.

        U, V: (..., rank) arrays.  Brackets run at the working modulus: the
        lift table at working precision in the uniform regime, canonical
        per-coordinate residues otherwise.
        """
        steps, terms = plan
        U = np.asarray(U, dtype=np.int64)
        V = np.asarray(V, dtype=np.int64)
        values = {(0,): np.mod(U, self._work), (1,): np.mod(V, self._work)}
        for w, left, right in steps:
            values[w] = _bracket(self._table, values[left], values[right],
                                 self._work)
        out = np.zeros(np.broadcast_shapes(U.shape, V.shape), dtype=np.int64)
        for w, coefficient in terms:
            out += self._scaled(values[w], coefficient)
        return np.mod(out, self._canon)

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

    def exp_ad_batch(self, W, X):
        """e^(ad W) applied to X, both (..., rank) arrays."""
        W = np.asarray(W, dtype=np.int64)
        X = np.asarray(X, dtype=np.int64)
        if self.rank == 0:
            return X.copy()
        W = np.mod(W, self._work)
        cur = np.mod(X, self._work)
        out = np.zeros(np.broadcast_shapes(W.shape, X.shape), dtype=np.int64)
        out += cur
        for coefficient in self._exp_ad:
            cur = _bracket(self._table, W, cur, self._work)
            out += self._scaled(cur, coefficient)
        return np.mod(out, self._canon)

    def exp_ad_matrix(self, w):
        """Matrix of the truncated exponential Σ (ad w)^k / k!."""
        d = self.rank
        W = np.broadcast_to(np.asarray(w, dtype=np.int64), (d, d))
        return np.ascontiguousarray(
            self.exp_ad_batch(W, np.eye(d, dtype=np.int64)).T)

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
    """Reduction modulus for coordinates of these sizes: a plain int when
    they agree (numpy reduces by a scalar faster), else an int64 vector."""
    if len(set(sizes)) == 1:
        return int(sizes[0])
    return np.array(sizes, dtype=np.int64)


def _triple_table(rank, constants):
    """Kernel form of {(i, j): {m: c}}: index arrays I, J of the pairs i < j
    with a nonzero row, and the (pairs, rank) matrix C of their constants."""
    keys = sorted(constants)
    C = np.zeros((len(keys), rank), dtype=np.int64)
    for t, key in enumerate(keys):
        for m, c in constants[key].items():
            C[t, m] = c
    return (np.array([i for i, _ in keys], dtype=np.intp),
            np.array([j for _, j in keys], dtype=np.intp), C)


def _bracket(table, U, V, modulus):
    """[U, V] over a triple table, reduced by the modulus: the coordinate
    moduli, or the working precision in the uniform regime."""
    I, J, C = table
    D = U[..., I] * V[..., J] - U[..., J] * V[..., I]
    return np.mod(D @ C, modulus)


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
    (W - 1)² · max(S, T), with S the largest column sum of the triple table
    and T the Lyndon words up to the evaluation degree."""
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

    __slots__ = ("ring", "size", "elements")

    def __init__(self, ring: FiniteLieRing):
        self.ring = ring
        self.size = ring.order()
        self.elements = ring.grid.elements

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

    def multiply_batch(self, U, V):
        return self.ring.ch_batch(U, V)

    def conjugate_batch(self, g, X):
        g = np.asarray(g, dtype=np.int64)
        GX = self.ring.ch_batch(np.broadcast_to(g, np.shape(X)), X)
        neg = np.mod(-g, self.ring._mods)
        return self.ring.ch_batch(GX, np.broadcast_to(neg, GX.shape))

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


def twist_map(ring: FiniteLieRing, pair, *, rng=None, pair_budget=2_000_000,
              sample=10_000) -> TwistReport:
    """Certify x̃ + ỹ = CH(x, y) with x̃ = e^(ad φ(x,y))x, ỹ = e^(ad ψ(x,y))y,
    that (x,y) ↦ (x̃,ỹ) is injective on the checked domain, and that x̃, ỹ are
    genuine conjugates of x, y.  Exhaustive when |g|² fits the budget."""
    if pair.certified_to < ring.class_:
        raise ValueError(
            f"pair certified to degree {pair.certified_to} < class {ring.class_}")
    phi, psi = pair.back_substituted()
    group = LazardGroup(ring)
    n = group.size
    exhaustive = n * n <= pair_budget
    if exhaustive:
        ia = np.repeat(np.arange(n), n)
        ib = np.tile(np.arange(n), n)
        mode = "exhaustive"
    else:
        rng = rng or random.Random(0)
        seen = {(rng.randrange(n), rng.randrange(n)) for _ in range(sample)}
        pairs = sorted(seen)
        ia = np.array([a for a, _ in pairs])
        ib = np.array([b for _, b in pairs])
        mode = "sampled"
    U, V = group.elements[ia], group.elements[ib]

    phi_vals = ring.evaluate_series_batch(phi, U, V)
    psi_vals = ring.evaluate_series_batch(psi, U, V)
    xt = ring.exp_ad_batch(phi_vals, U)
    yt = ring.exp_ad_batch(psi_vals, V)

    total = ring.ch_batch(U, V)
    bad = np.nonzero(np.any(np.mod(xt + yt, ring._mods) != total, axis=-1))[0]
    if bad.size:
        b = int(bad[0])
        raise PropertyFailed(
            f"x̃ + ỹ != CH(x, y) at x={tuple(U[b])}, y={tuple(V[b])}")

    for W, X, T, tag in ((phi_vals, U, xt, "x"), (psi_vals, V, yt, "y")):
        WX = ring.ch_batch(W, X)
        conj = ring.ch_batch(WX, np.mod(-W, ring._mods))
        bad = np.nonzero(np.any(conj != T, axis=-1))[0]
        if bad.size:
            b = int(bad[0])
            raise PropertyFailed(
                f"{tag}-twist is not the conjugation by exp of its own series "
                f"at x={tuple(U[b])}, y={tuple(V[b])}")

    codes = group.index_batch(xt) * n + group.index_batch(yt)
    distinct = np.unique(codes).size
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
