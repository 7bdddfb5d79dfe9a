"""Brute-force character theory for Lazard groups: the ground truth side.

Conjugacy classes come from orbit closure under conjugation by the
coordinate-basis exponentials e^{±e_i} (their images span G modulo the
Frattini subgroup, so they generate), guarded by a randomized stability
audit over full group elements.  The character table is computed with the
Burnside class-matrix method: a seeded random linear combination of the
class matrices is diagonalized, its eigenvectors are the central characters
once the eigenvalues separate, and degrees follow from the first
orthogonality relation.  Both orthogonality relations gate the result.

Nothing here knows about coadjoint orbits; agreement with the orbit side is
established by ``match_tables``.
"""

from __future__ import annotations

from functools import cmp_to_key

import numpy as np

from .errors import (DegenerateSpectrum, DomainMismatch, NoMatching,
                     StabilityCheckFailed, ValidationFailed)
from .harmonic import ClassFunction, element_table
from .liering import LazardGroup, Subring

ORDER_CAP = 10 ** 5
CLASS_CAP = 512


def permutation_orbits(n: int, perms):
    """Partition {0..n-1} into orbits under the given permutation arrays.

    Forward closure suffices: each permutation has finite order, so the
    semigroup the arrays generate is already a group.  Returns (labels,
    orbits); orbit ids increase with the smallest member, and each orbit
    comes back as a sorted index array.
    """
    labels = np.full(n, -1, dtype=np.int64)
    orbits = []
    for start in range(n):
        if labels[start] >= 0:
            continue
        oid = len(orbits)
        labels[start] = oid
        chunks = [np.array([start], dtype=np.int64)]
        frontier = chunks[0]
        while frontier.size and perms:
            nxt = np.unique(np.concatenate([perm[frontier] for perm in perms]))
            fresh = nxt[labels[nxt] < 0]
            labels[fresh] = oid
            chunks.append(fresh)
            frontier = fresh
        orbits.append(np.sort(np.concatenate(chunks)))
    return labels, orbits


class ConjClassPartition:
    """Conjugacy classes of a Lazard group as index sets over its enumeration.

    Classes are ordered by their smallest member, so the identity class is
    class 0; representatives are the smallest member of each class.
    """

    __slots__ = ("group", "labels", "classes", "reps", "sizes")

    def __init__(self, group: LazardGroup, labels, classes):
        self.group = group
        self.labels = labels
        self.classes = classes
        self.reps = [int(c[0]) for c in classes]
        self.sizes = np.array([len(c) for c in classes], dtype=np.int64)

    def class_of(self, index: int) -> int:
        return int(self.labels[index])

    def __len__(self):
        return len(self.classes)

    def __repr__(self):
        return (f"ConjClassPartition({len(self)} classes, "
                f"|G|={len(self.labels)})")


def _conjugation_perm(group: LazardGroup, g) -> np.ndarray:
    return group.index_batch(group.conjugate_batch(g, group.elements))


def conjugacy_classes(group: LazardGroup, *, seed=0, audits=50,
                      cap=ORDER_CAP) -> ConjClassPartition:
    """Exact conjugacy classes, with a seeded random stability audit."""
    n = len(group)
    if n > cap:
        raise ValueError(f"|G| = {n} exceeds the cap {cap}")
    ring = group.ring
    perms = []
    for i in range(ring.rank):
        for sgn in (1, -1):
            perms.append(_conjugation_perm(group, ring.scale(ring.basis(i),
                                                             sgn)))
    labels, classes = permutation_orbits(n, perms)
    rng = np.random.default_rng(seed)
    for _ in range(audits):
        g = tuple(int(rng.integers(0, s)) for s in ring.sizes)
        perm = _conjugation_perm(group, g)
        if not np.array_equal(labels[perm], labels):
            raise StabilityCheckFailed(
                f"conjugation by {g} moves elements across classes")
    part = ConjClassPartition(group, labels, classes)
    if part.sizes[labels[group.index_of(ring.zero())]] != 1:
        raise StabilityCheckFailed("identity class is not a singleton")
    if any(n % s for s in part.sizes):
        raise StabilityCheckFailed("a class size does not divide |G|")
    return part


class CharTable:
    """Irreducible characters as rows over class representatives.

    ``rows[i, c]`` is the i-th character at the representative of class c;
    rows are sorted by degree and then by rounded values, so the table is
    deterministic for a fixed seed.
    """

    __slots__ = ("group", "partition", "rows", "degrees", "seed", "attempts")

    def __init__(self, group, partition, rows, degrees, seed, attempts):
        self.group = group
        self.partition = partition
        self.rows = rows
        self.degrees = degrees
        self.seed = seed
        self.attempts = attempts

    @property
    def class_sizes(self):
        return self.partition.sizes

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return (f"CharTable({len(self)} irreducibles, "
                f"degrees up to {int(self.degrees.max(initial=1))})")


def _combined_class_matrices(group, part, weights):
    """Sum_a weights[k, a] * M_a for every retry k in one pass over classes.

    (M_a)_{b,c} counts pairs x in C_a, y in C_b with x y = z_c; the vector
    (omega(c))_c of any central character is a common right eigenvector with
    eigenvalue omega(a).
    """
    ring = group.ring
    r = len(part)
    reps_coords = group.elements[np.array(part.reps)]
    out = np.zeros((len(weights), r, r))
    c_idx = np.arange(r, dtype=np.int64)
    for a in range(r):
        members = part.classes[a]
        X = group.elements[members]
        negX = np.mod(-X, ring._mods)
        left = np.repeat(negX, r, axis=0)
        right = np.tile(reps_coords, (len(members), 1))
        y = ring.ch_batch(left, right)
        b = part.labels[group.index_batch(y)]
        flat = b * r + np.tile(c_idx, len(members))
        counts = np.bincount(flat, minlength=r * r).reshape(r, r)
        out += weights[:, a, None, None] * counts
    return out


def _row_order(degrees, rows):
    """Row order of a character table: by degree, then by the values rounded
    to 8 decimals, column by column; ties keep their order.  Each value is
    rounded only when a comparison reaches its column."""
    rounded = {}

    def value(i, c):
        if (i, c) not in rounded:
            z = rows[i, c]
            rounded[i, c] = (round(z.real, 8), round(z.imag, 8))
        return rounded[i, c]

    def compare(i, j):
        if degrees[i] != degrees[j]:
            return -1 if degrees[i] < degrees[j] else 1
        for c in range(rows.shape[1]):
            a, b = value(i, c), value(j, c)
            if a != b:
                return -1 if a < b else 1
        return 0

    return sorted(range(len(rows)), key=cmp_to_key(compare))


def character_table(group: LazardGroup, *, seed=0, retries=8, gap=1e-6,
                    class_cap=CLASS_CAP, tol=1e-8) -> CharTable:
    """Full complex character table via the Burnside class-matrix method."""
    part = conjugacy_classes(group, seed=seed)
    r = len(part)
    if r > class_cap:
        raise ValueError(f"{r} classes exceed the cap {class_cap}")
    n = len(group)
    sizes = part.sizes.astype(np.float64)
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((retries, r))
    combined = _combined_class_matrices(group, part, weights)
    identity_class = part.class_of(group.index_of(group.ring.zero()))

    for attempt in range(retries):
        vals, vecs = np.linalg.eig(combined[attempt])
        dist = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(dist, np.inf)
        if dist.min() < gap:
            continue
        at_identity = vecs[identity_class, :]
        if np.min(np.abs(at_identity)) < 1e-12:
            continue
        omega = vecs / at_identity[None, :]
        norms = (np.abs(omega) ** 2 / sizes[:, None]).sum(axis=0)
        degrees = np.sqrt(n / norms)
        rounded = np.rint(degrees)
        if np.max(np.abs(degrees - rounded)) > 1e-6:
            raise ValidationFailed(
                f"degrees {degrees} are not integers to 1e-6")
        rows = (rounded[None, :] * omega / sizes[:, None]).T

        row_orth = (rows * sizes[None, :]) @ rows.conj().T / n
        dev_row = np.max(np.abs(row_orth - np.eye(r)))
        col_orth = rows.T @ rows.conj()
        target = np.diag(n / sizes)
        dev_col = np.max(np.abs(col_orth - target)
                         / np.maximum(1.0, np.abs(target)))
        if dev_row > tol or dev_col > tol:
            raise ValidationFailed(
                f"orthogonality deviation row={dev_row:.2e} "
                f"col={dev_col:.2e} exceeds {tol}")

        key = _row_order(rounded, rows)
        return CharTable(group, part, rows[key],
                         rounded[key].astype(np.int64), seed, attempt)
    raise DegenerateSpectrum(
        f"eigenvalue gap stayed below {gap} for {retries} retries")


class MatchReport:
    """A certified bijection between candidate characters and table rows."""

    __slots__ = ("assignment", "deviations", "tol")

    def __init__(self, assignment, deviations, tol):
        self.assignment = tuple(assignment)
        self.deviations = deviations
        self.tol = tol

    @property
    def max_deviation(self) -> float:
        return float(max(self.deviations, default=0.0))

    def __repr__(self):
        return (f"MatchReport({len(self.assignment)} rows, "
                f"max deviation {self.max_deviation:.2e})")


def _values_on_group(character) -> np.ndarray:
    if isinstance(character, ClassFunction):
        return character.values
    inner = getattr(character, "values", None)
    if isinstance(inner, ClassFunction):
        return inner.values
    raise TypeError(f"cannot read character values from {character!r}")


def match_tables(characters, table: CharTable, tol=1e-8) -> MatchReport:
    """Perfect matching of candidate characters against oracle table rows.

    Candidates are compared entrywise at the class representatives; an edge
    is allowed when the max deviation is below tol, and a Kuhn augmenting
    search then finds the bijection or proves there is none.
    """
    reps = np.array(table.partition.reps)
    cand = np.array([_values_on_group(c)[reps] for c in characters])
    k = len(cand)
    r = len(table.rows)
    dev = np.zeros((k, r))
    for i in range(k):
        dev[i] = np.max(np.abs(cand[i][None, :] - table.rows), axis=1)
    allowed = dev < tol

    match_row = [-1] * r

    def augment(i, seen):
        for j in range(r):
            if allowed[i, j] and not seen[j]:
                seen[j] = True
                if match_row[j] < 0 or augment(match_row[j], seen):
                    match_row[j] = i
                    return True
        return False

    matched = sum(augment(i, [False] * r) for i in range(k))
    if matched != k or k != r:
        raise NoMatching(
            f"matched {matched} of {k} candidates against {r} rows")
    assignment = [0] * k
    for j, i in enumerate(match_row):
        assignment[i] = j
    deviations = [float(dev[i, assignment[i]]) for i in range(k)]
    return MatchReport(assignment, deviations, tol)


def restriction_multiplicity(group: LazardGroup, sub: Subring,
                             chi_g: ClassFunction,
                             chi_k: ClassFunction) -> complex:
    """<chi_g|_K, chi_k> over K = exp of the subring, mass-1 Haar on K."""
    if not isinstance(chi_g.domain, LazardGroup):
        raise DomainMismatch("chi_g must live on the ambient group")
    if chi_g.domain.ring is not group.ring or sub.ring is not group.ring:
        raise DomainMismatch("group, subring and chi_g disagree on the ring")
    ring_k = (chi_k.domain.ring if isinstance(chi_k.domain, LazardGroup)
              else chi_k.domain)
    if ring_k is not sub.induced:
        raise DomainMismatch("chi_k must live on the subring's induced ring")
    coords = element_table(chi_k.domain)
    if sub.basis_coords:
        basis = np.array(sub.basis_coords, dtype=np.int64)
        ambient = np.mod(coords @ basis, group.ring._mods)
    else:
        ambient = np.zeros((1, group.ring.rank), dtype=np.int64)
    restricted = chi_g.values[group.index_batch(ambient)]
    return complex(np.vdot(chi_k.values, restricted) / len(coords))
