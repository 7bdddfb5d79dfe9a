"""Nilpotent Lie algebras over Q_p, their uniform lattice chains, and the
finite-level restriction harness.

Z_p is represented p-locally: lattices are Z_(p)-spans of rational vectors
(denominators prime to p), held in a canonical p-local Hermite basis, so
membership, nesting and index computations are exact.  The chain k_1 ⊆
k_2 ⊆ ... is built from right-normed brackets of the scaled basis p^{-j}x_k
and certified by five exact lattice checks.  Reducing a uniform lattice mod
p^r lands back in the finite-ring machinery, where the restriction harness
compares exact orbit containment against oracle restriction multiplicities.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import (AssertionFailed, EquivalenceFailed, InputBoundViolation,
                     JacobiViolation, RegimeViolation, ValidationFailed)
from .freelie import vp
from .harmonic import DualSpace
from .liering import (LazardGroup, Subring, _exact_bracket, jacobi_defects,
                      make_ring)
from .oracle import character_table, match_tables
from .orbitmethod import coadjoint_orbits, kirillov_character, \
    p2_orbit_partition
from .ratlin import p_local_hermite, rational_span_basis, solve_right


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
        if p < 2:
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
        sol = solve_right(matrix, list(vector), p=self.p)
        if sol is None:
            raise ValidationFailed("full-rank solve failed")
        return tuple(sol)

    def contains(self, vector) -> bool:
        return all(vp(c, self.p) >= 0 for c in self.coordinates(vector))

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


def _chain_scale(p: int) -> int:
    return 4 if p == 2 else p


def uniform_chain(algebra: QpLieAlgebra, j_max: int, *,
                  basis_choice=None) -> list[PLattice]:
    """Uniform lattices k_1 ⊆ ... ⊆ k_{j_max} exhausting the algebra.

    k'_j is the Z_(p)-span of all iterated right-normed brackets of the
    elements p^{-j}x_k, and k_j = p*k'_j (4*k'_j when p = 2).  Five exact
    properties are certified for every level: bracket closure, [k,k] inside
    the scaled lattice, nesting, full rank, and p^{1-j}x_m membership.
    """
    if j_max < 1:
        raise InputBoundViolation(f"j_max = {j_max} < 1")
    p, n = algebra.p, algebra.dimension
    if basis_choice is None:
        basis_choice = [algebra.basis(i) for i in range(n)]
    else:
        basis_choice = [tuple(Fraction(x) for x in b) for b in basis_choice]
        if len(rational_span_basis(basis_choice)) != n:
            raise ValueError("basis_choice is not a Q_p-basis")
    factor = _chain_scale(p)

    chain = []
    for j in range(1, j_max + 1):
        shift = Fraction(1, p ** j)
        gens = [tuple(shift * x for x in b) for b in basis_choice]
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
        for m, x in enumerate(basis_choice):
            if not kj.contains(tuple(lead * c for c in x)):
                raise AssertionFailed(
                    f"(e) {lead}*x_{m} is not in k_{j}")
    return chain


def quotient_to_finite(lattice: PLattice, algebra: QpLieAlgebra, r: int, *,
                       label=None):
    """The finite Lie ring k/p^r*k over Z/p^r in the lattice basis.

    The lattice must be uniform ([k,k] ⊆ p*k, ⊆ 4*k when p = 2); the exact
    rational structure constants become both the residues and the p-adic
    lifts of the finite ring, so the uniform CH series is available at any
    class.
    """
    if r < 1:
        raise InputBoundViolation(f"r = {r} < 1")
    p, n = lattice.p, lattice.dimension
    need = 2 if p == 2 else 1
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
    big = p ** r
    residues = {key: {k: c.numerator * pow(c.denominator, -1, big) % big
                      for k, c in row.items()}
                for key, row in lift.items()}
    ring = make_ring(p, (r,) * n, residues, lifts=lift,
                     label=label or f"{algebra.label or 'k'}/p^{r}")
    if ring.constants and ring.uniform_depth < need:
        raise RegimeViolation(
            f"quotient depth {ring.uniform_depth} < {need}")
    return ring


# -- restriction ----------------------------------------------------------------

class RestrictionReport:
    """Outcome of the orbit-containment vs restriction-support comparison.

    ``finite_shadow`` records that Fell-topology supports are replaced by
    restriction multiplicities of finite quotients.
    """

    __slots__ = ("alpha", "orbits_g", "orbits_k", "pairs", "contained",
                 "finite_shadow")

    def __init__(self, alpha, orbits_g, orbits_k, pairs, contained):
        self.alpha = alpha
        self.orbits_g = orbits_g
        self.orbits_k = orbits_k
        self.pairs = pairs
        self.contained = contained
        self.finite_shadow = True

    def __repr__(self):
        return (f"RestrictionReport(alpha={self.alpha}, pairs={self.pairs}, "
                f"contained={self.contained})")


def _restricted_phase_keys(weights, basis_rows, big):
    """One hashable key per dual row: its phases on the listed elements."""
    if basis_rows.size:
        phases = np.mod(weights @ basis_rows.T, big)
    else:
        phases = np.zeros((len(weights), 0), dtype=np.int64)
    return [tuple(Fraction(int(x), big) for x in row) for row in phases]


def _multiplicity_matrix(sub, table_g, table_k):
    """M[rho, kappa] = <chi_rho|_K, chi_kappa> over all oracle row pairs."""
    idx = sub.ambient_indices()
    rows_g = table_g.rows[:, table_g.partition.labels]
    rows_k = table_k.rows[:, table_k.partition.labels]
    return rows_g[:, idx] @ rows_k.conj().T / len(idx)


def restriction_harness(ring, generators, alpha=None, *, seed=0,
                        tol=1e-8) -> RestrictionReport:
    """Orbit containment iff restriction support, over all orbit pairs.

    For every G-orbit Om in g* and K-orbit Om0 in the dual of alpha*k, the
    exact predicate "Om0 ⊆ res(Om)" must agree with "some K-irreducible of
    Om0 appears in the restriction of Om's irreducible(s) to K".  Orbit
    sides are matched to oracle rows, so the multiplicities are the brute
    force ones.  For p = 2 both sides run through the orbit partitions of
    the duals of the doubled rings, with alpha = 2.
    """
    p = ring.p
    if alpha is None:
        alpha = 2 if p == 2 else 1
    if alpha != (2 if p == 2 else 1):
        raise RegimeViolation(f"alpha = {alpha} is not valid for p = {p}")
    group = LazardGroup(ring)
    gens = [ring.scale(ring.element(g), alpha) for g in generators]
    sub = Subring(ring, gens, label=f"{alpha}*k")
    kring = sub.induced
    kgroup = LazardGroup(kring)
    table_g = character_table(group, seed=seed)
    table_k = character_table(kgroup, seed=seed)
    mult = _multiplicity_matrix(sub, table_g, table_k)
    basis_rows = np.array(sub.basis_coords, dtype=np.int64).reshape(
        len(sub.basis_coords), ring.rank)

    if p >= 3:
        orbs_g = coadjoint_orbits(ring, seed=seed)
        orbs_k = coadjoint_orbits(kring, seed=seed)
        chars_g = [kirillov_character(ring, o, group=group, seed=seed)
                   for o in orbs_g]
        chars_k = [kirillov_character(kring, o, group=kgroup, seed=seed)
                   for o in orbs_k]
        row_of_g = match_tables([c.values for c in chars_g], table_g).assignment
        row_of_k = match_tables([c.values for c in chars_k], table_k).assignment
        space_g, space_k = DualSpace(ring), DualSpace(kring)
        res_keys = [set(_restricted_phase_keys(space_g.weights[o.indices],
                                               basis_rows, ring.big))
                    for o in orbs_g]
        sub_keys = [_restricted_phase_keys(
            np.mod(space_k.weights[o.indices], kring.big),
            np.eye(kring.rank, dtype=np.int64), kring.big) for o in orbs_k]
        cells_g = [(res_keys[a], (row_of_g[a],)) for a in range(len(orbs_g))]
        cells_k = [(set(sub_keys[b]), (row_of_k[b],))
                   for b in range(len(orbs_k))]
    else:
        pg = p2_orbit_partition(ring, group=group, table=table_g, seed=seed)
        pk = p2_orbit_partition(kring, group=kgroup, table=table_k, seed=seed)
        g2 = Subring(ring, [ring.scale(ring.basis(i), 2)
                            for i in range(ring.rank)])
        k2 = Subring(kring, [kring.scale(kring.basis(m), 2)
                             for m in range(kring.rank)])
        # basis of 2*(alpha*k) written in coordinates of the ring of 2g
        common = np.array([g2.express(sub.embed_coords(b))
                           for b in k2.basis_coords],
                          dtype=np.int64).reshape(len(k2.basis_coords),
                                                  len(g2.basis_coords))
        big2 = g2.induced.big
        cells_g = [(set(_restricted_phase_keys(
            c.orbit.space.weights[c.orbit.indices], common, big2)),
            c.irreducibles) for c in pg]
        cells_k = [(set(_restricted_phase_keys(
            np.mod(c.orbit.space.weights[c.orbit.indices], k2.induced.big),
            np.eye(k2.induced.rank, dtype=np.int64), k2.induced.big)),
            c.irreducibles) for c in pk]

    pairs = contained = 0
    for a, (res_a, rows_a) in enumerate(cells_g):
        for b, (keys_b, rows_b) in enumerate(cells_k):
            inside = keys_b <= res_a
            supported = bool(np.max(np.abs(
                mult[np.ix_(rows_a, rows_b)])) > tol)
            if inside != supported:
                raise EquivalenceFailed(
                    f"witness pair (orbit {a}, suborbit {b}): "
                    f"containment={inside}, restriction support={supported}")
            pairs += 1
            contained += inside
    return RestrictionReport(alpha, len(cells_g), len(cells_k), pairs,
                             contained)
