"""Nilpotent Lie algebras over Q_p, their uniform lattice chains, and the
finite-level restriction harness.

Z_p is represented p-locally: lattices are Z_(p)-spans of rational vectors
(denominators prime to p), held in a canonical p-local Hermite basis, so
membership, nesting and index computations are exact.  The chain k_1 ⊆
k_2 ⊆ ... is built from right-normed brackets of the scaled basis p^{-j}x_k
and certified by five exact lattice checks.  Reducing a uniform lattice mod
p^r lands back in the finite-ring machinery, where the restriction harness
compares exact orbit containment, read off g*, against oracle restriction
multiplicities.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import (AssertionFailed, EquivalenceFailed, InputBoundViolation,
                     JacobiViolation, RegimeViolation, ValidationFailed)
from .freelie import is_prime, vp
from .liering import (LazardGroup, Subring, _exact_bracket, jacobi_defects,
                      min_uniform_depth, uniform_quotient)
from .harmonic import ClassFunction
from .oracle import character_table, match_tables, restriction_multiplicity
from .orbitmethod import (coadjoint_orbits, kirillov_character,
                          p2_orbit_partition, restriction_indices)
from .ratlin import (in_p_lattice, p_local_hermite, rational_span_basis,
                     solve_right)


def _as_fraction_rows(constants, dimension):
    table = {}
    for (i, j), row in constants.items():
        if not 0 <= i < j < dimension:
            raise ValueError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < N")
        entries = {int(k): Fraction(c) for k, c in row.items() if Fraction(c)}
        for k in entries:
            if not 0 <= k < dimension:
                raise ValueError(f"target index {k} out of range")
        if entries:
            table[(i, j)] = entries
    return table


class QpLieAlgebra:
    """Nilpotent Lie algebra over Q_p with exact rational structure constants.

    Constants are given for i < j only, so antisymmetry holds by
    construction; Jacobi is checked exactly on all basis triples and the
    lower central series must reach zero.
    """

    __slots__ = ("p", "dimension", "constants", "class_", "label")

    def __init__(self, p: int, dimension: int, constants, label=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p = p
        self.dimension = dimension
        self.constants = _as_fraction_rows(constants, dimension)
        self.label = label
        self._check_jacobi()
        self.class_ = self._nilpotence_class()

    def basis(self, i: int):
        e = [Fraction(0)] * self.dimension
        e[i] = Fraction(1)
        return tuple(e)

    def bracket(self, u, v):
        return tuple(Fraction(x) for x in _exact_bracket(self.constants, u, v))

    def _check_jacobi(self):
        for (i, j, k), _ in jacobi_defects(self.dimension, self.constants):
            raise JacobiViolation(f"Jacobi fails on basis triple ({i},{j},{k})")

    def _nilpotence_class(self) -> int:
        current = [self.basis(i) for i in range(self.dimension)]
        cls = 0
        while current:
            cls += 1
            if cls > self.dimension:
                raise ValidationFailed("lower central series does not "
                                       "terminate: algebra is not nilpotent")
            nxt = [self.bracket(self.basis(i), w)
                   for i in range(self.dimension) for w in current]
            current = rational_span_basis(nxt)
        return cls

    def __repr__(self):
        tag = self.label or f"p={self.p},N={self.dimension}"
        return f"QpLieAlgebra({tag}, class={self.class_})"


class PLattice:
    """Full-rank Z_(p)-lattice in Q^N with a canonical Hermite basis.

    The canonical basis is lower triangular with p-power diagonal, so two
    lattices are equal iff their bases coincide entrywise.
    """

    __slots__ = ("p", "dimension", "basis")

    def __init__(self, p: int, columns):
        if not columns:
            raise ValueError("a lattice needs at least one spanning vector")
        self.p = p
        self.dimension = len(columns[0])
        basis = p_local_hermite(columns, p)
        if len(basis) != self.dimension:
            raise ValidationFailed(
                f"lattice rank {len(basis)} < {self.dimension}: not open")
        self.basis = tuple(tuple(c) for c in basis)

    def coordinates(self, vector):
        """Exact rational coordinates of the vector in the canonical basis."""
        matrix = [[self.basis[j][i] for j in range(self.dimension)]
                  for i in range(self.dimension)]
        sol = solve_right(matrix, list(vector))
        if sol is None:
            raise ValidationFailed("full-rank solve failed")
        return tuple(sol)

    def contains(self, vector) -> bool:
        return in_p_lattice(vector, self.basis, self.p)

    def __contains__(self, vector) -> bool:
        return self.contains(vector)

    def scale(self, factor) -> "PLattice":
        f = Fraction(factor)
        return PLattice(self.p, [[f * x for x in col] for col in self.basis])

    def index_in(self, larger: "PLattice") -> int:
        """Group index [larger : self] for a sublattice of the same rank."""
        if not all(larger.contains(col) for col in self.basis):
            raise ValueError("not a sublattice")
        ratio = Fraction(1)
        for r in range(self.dimension):
            ratio *= self.basis[r][r] / larger.basis[r][r]
        return int(ratio)

    def __eq__(self, other):
        return (isinstance(other, PLattice) and self.p == other.p
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.p, self.basis))

    def __repr__(self):
        diag = [str(self.basis[r][r]) for r in range(self.dimension)]
        return f"PLattice(p={self.p}, diag=[{', '.join(diag)}])"


def uniform_chain(algebra: QpLieAlgebra, j_max: int) -> list[PLattice]:
    """Uniform lattices k_1 ⊆ ... ⊆ k_{j_max} exhausting the algebra.

    k'_j is the Z_(p)-span of all iterated right-normed brackets of the
    elements p^{-j}x_k, and k_j = p*k'_j (4*k'_j when p = 2).  Five exact
    properties are certified for every level: bracket closure, [k,k] inside
    the scaled lattice, nesting, full rank, and p^{1-j}x_m membership.
    """
    if j_max < 1:
        raise InputBoundViolation(f"j_max = {j_max} < 1")
    p, n = algebra.p, algebra.dimension
    basis = [algebra.basis(i) for i in range(n)]
    factor = p ** min_uniform_depth(p)

    chain = []
    for j in range(1, j_max + 1):
        shift = Fraction(1, p ** j)
        gens = [tuple(shift * x for x in b) for b in basis]
        lat = PLattice(p, gens)
        while True:
            new = [v for g in gens for col in lat.basis
                   if any(v := algebra.bracket(g, col))]
            grown = PLattice(p, list(lat.basis) + new) if new else lat
            if grown == lat:
                break
            lat = grown
        chain.append(lat.scale(factor))

    for j, kj in enumerate(chain, start=1):
        scaled = kj.scale(factor)
        for a in range(n):
            for b in range(a + 1, n):
                w = algebra.bracket(kj.basis[a], kj.basis[b])
                if not kj.contains(w):
                    raise AssertionFailed(
                        f"(a) k_{j} is not bracket-closed at basis pair "
                        f"({a},{b})")
                if not scaled.contains(w):
                    raise AssertionFailed(
                        f"(b) [k_{j},k_{j}] is not inside {factor}*k_{j} "
                        f"at basis pair ({a},{b})")
        if j < len(chain) and not all(chain[j].contains(col)
                                      for col in kj.basis):
            raise AssertionFailed(f"(c) k_{j} is not inside k_{j + 1}")
        if len(kj.basis) != n:
            raise AssertionFailed(f"(d) k_{j} is not full rank")
        # openness witness at the chain scale: factor/p^j * x_m is factor
        # times a generator of k'_j, so it must land in k_j = factor*k'_j
        # (p^{1-j} when p >= 3, 2^{2-j} when p = 2)
        lead = Fraction(factor, p ** j)
        for m, x in enumerate(basis):
            if not kj.contains(tuple(lead * c for c in x)):
                raise AssertionFailed(
                    f"(e) {lead}*x_{m} is not in k_{j}")
    return chain


def quotient_to_finite(lattice: PLattice, algebra: QpLieAlgebra, r: int, *,
                       label=None):
    """The finite Lie ring k/p^r*k over Z/p^r in the lattice basis.

    The lattice must be uniform ([k,k] ⊆ p*k, ⊆ 4*k when p = 2), checked
    on the coordinates of the basis brackets, else RegimeViolation.  The
    exact rational coordinates then go to ``liering.uniform_quotient`` as
    the structure constants: they become both the residues and the p-adic
    lifts of the finite ring, so the uniform CH series is available at any
    class.
    """
    if r < 1:
        raise InputBoundViolation(f"r = {r} < 1")
    p, n = lattice.p, lattice.dimension
    need = min_uniform_depth(p)
    lift = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = algebra.bracket(lattice.basis[i], lattice.basis[j])
            coords = lattice.coordinates(w)
            bad = min((vp(c, p) for c in coords if c), default=need)
            if bad < need:
                raise RegimeViolation(
                    f"lattice is not uniform: [b_{i},b_{j}] has coordinate "
                    f"valuation {bad} < {need}")
            row = {k: c for k, c in enumerate(coords) if c}
            if row:
                lift[(i, j)] = row
    return uniform_quotient(p, n, lift, r,
                            label=label or f"{algebra.label or 'k'}/p^{r}")


# -- restriction ----------------------------------------------------------------

def _cell_of(cells, size):
    """The index of the cell holding each of 0..size-1."""
    out = np.empty(size, dtype=np.int64)
    for i, members in enumerate(cells):
        out[np.asarray(members, dtype=np.int64)] = i
    return out


def restriction_harness(ring, generators, alpha=None, *, seed=0,
                        tol=1e-8) -> dict:
    """Orbit containment iff restriction support, over all orbit pairs.

    For every G-orbit Om in g* and K-orbit Om0 in the dual of alpha*k, the
    exact predicate "Om0 ⊆ res(Om)" must agree with "some K-irreducible of
    Om0 appears in the restriction of Om's irreducible(s) to K".  Orbit
    sides are matched to oracle rows, so the multiplicities are the brute
    force ones.  For p = 2 both sides run through the orbit partitions of
    the duals of the doubled rings, with alpha = 2.  res(Om) holds the
    ``restriction_indices`` of Om, and Om0 lies in it exactly when it holds
    |Om0| characters of Om0, an integer count; all pairs are decided at
    once, and the first to disagree in row-major order is the witness.

    Returns alpha, the orbit counts of both sides, the pairs compared and
    how many are contained; ``finite_shadow`` records that Fell-topology
    supports are replaced by restriction multiplicities of finite
    quotients.
    """
    p = ring.p
    if alpha is None:
        alpha = 2 if p == 2 else 1
    if alpha != (2 if p == 2 else 1):
        raise RegimeViolation(f"alpha = {alpha} is not valid for p = {p}")
    group = LazardGroup(ring)
    gens = [ring.scale(ring.element(g), alpha) for g in generators]
    sub = Subring(ring, gens, label=f"{alpha}*k")
    kgroup = LazardGroup(sub.induced)
    table_g = character_table(group, seed=seed)
    table_k = character_table(kgroup, seed=seed)
    # each side's irreducibles on its group, one row each
    mult = restriction_multiplicity(group, sub, *(
        ClassFunction(t.partition.group, t.rows[:, t.partition.labels])
        for t in (table_g, table_k)))

    # each side's orbits, the table rows of each orbit's irreducibles, and
    # the restriction map from the G side's dual to the K side's
    if p >= 3:
        orbs_g = coadjoint_orbits(group)
        orbs_k = coadjoint_orbits(kgroup)
        rows_g = [(row,) for row in match_tables(
            kirillov_character(group, orbs_g), table_g).assignment]
        rows_k = [(row,) for row in match_tables(
            kirillov_character(kgroup, orbs_k), table_k).assignment]
        image = restriction_indices(ring, sub.basis_coords, sub.induced)
    else:
        # the subrings 2g and 2(alpha*k) the cells' orbits live in the duals of
        g2, pg = p2_orbit_partition(table_g)
        k2, pk = p2_orbit_partition(table_k)
        orbs_g, rows_g = [c.orbit for c in pg], [c.irreducibles for c in pg]
        orbs_k, rows_k = [c.orbit for c in pk], [c.irreducibles for c in pk]
        # g* -> (2g)* is onto, so (2g)* -> (2 alpha k)* is read off g*:
        # res_2g(f) goes to res_{2 alpha k}(f), 2(alpha k) in g's coordinates
        k2_rows = np.array(k2.basis_coords, dtype=np.int64).reshape(
            len(k2.basis_coords), sub.induced.rank)
        sub_rows = np.array(sub.basis_coords, dtype=np.int64).reshape(
            len(sub.basis_coords), ring.rank)
        to_g2 = restriction_indices(ring, g2.basis_coords, g2.induced)
        image = np.empty(g2.induced.order(), dtype=np.int64)
        image[to_g2] = restriction_indices(
            ring, k2_rows @ sub_rows % ring.sizes, k2.induced)
    # the distinct pairs (Om, y in res(Om)) as sorted keys, counted per Om0
    m, shape = orbs_k[0].ring.order(), (len(orbs_g), len(orbs_k))
    hits = np.sort(_cell_of([o.indices for o in orbs_g], len(image)) * m
                   + image)
    hits = hits[np.diff(hits, prepend=-1) != 0]
    suborbit = _cell_of([o.indices for o in orbs_k], m)
    counts = np.bincount(hits // m * shape[1] + suborbit[hits % m],
                         minlength=shape[0] * shape[1]).reshape(shape)
    inside = counts == [o.size for o in orbs_k]
    rho, kappa = np.nonzero(np.abs(mult) > tol)
    supported = np.zeros(shape, dtype=bool)
    supported[_cell_of(rows_g, len(mult))[rho],
              _cell_of(rows_k, mult.shape[1])[kappa]] = True
    bad = np.flatnonzero(inside != supported)
    if bad.size:
        a, b = divmod(int(bad[0]), shape[1])
        raise EquivalenceFailed(
            f"witness pair (orbit {a}, suborbit {b}): "
            f"containment={bool(inside[a, b])}, "
            f"restriction support={bool(supported[a, b])}")
    return {"alpha": alpha, "orbits_g": shape[0], "orbits_k": shape[1],
            "pairs": inside.size, "contained": int(inside.sum()),
            "finite_shadow": True}
