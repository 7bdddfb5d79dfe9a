"""Brute-force character theory for Lazard groups: the ground truth side.

Conjugacy classes come from orbit closure under conjugation by the
coordinate-basis exponentials e^{±e_i} (their images span G modulo the
Frattini subgroup, so they generate), guarded by a randomized stability
audit over full group elements.  The character table is computed with the
Burnside class-matrix method with Dixon-Schneider splitting: a seeded
random linear combination of the class matrices is diagonalized, and its
eigenvectors are the central characters once the eigenvalues separate.  The
combination grows over the classes in size order, the prefix doubling, and
stops at the first prefix whose spectrum separates, which is usually a
small part of the class algebra.  Degrees follow from the first
orthogonality relation, and both orthogonality relations gate the result.

Nothing here knows about coadjoint orbits; agreement with the orbit side is
established by ``match_tables``.
"""

from __future__ import annotations

import numpy as np

from .errors import (DegenerateSpectrum, DomainMismatch, NoMatching,
                     StabilityCheckFailed, ValidationFailed)
from .harmonic import GROUP, ClassFunction, translates
from .liering import LazardGroup, Subring

ORDER_CAP = 10 ** 5
CLASS_CAP = 512


def permutation_orbits(n: int, perms):
    """Partition {0..n-1} into orbits under the given permutation arrays.

    Each index starts labelled by itself.  A round lowers every label to
    the smallest label one step along each permutation, lab = min(lab,
    lab[perm]), then jumps it to its label's label, lab = lab[lab]; rounds
    repeat until nothing changes.  A label is always a member of its
    index's orbit, and at the fixpoint it is constant along every cycle of
    every permutation, hence on each orbit, so it is the orbit's smallest
    member.  Returns (labels, orbits); orbit ids increase with the smallest
    member, and each orbit comes back as a sorted index array.
    """
    lab = np.arange(n, dtype=np.int64)
    while True:
        nxt = lab
        for perm in perms:
            nxt = np.minimum(nxt, nxt[perm])
        nxt = nxt[nxt]
        if np.array_equal(nxt, lab):
            break
        lab = nxt
    _, labels = np.unique(lab, return_inverse=True)
    members = np.argsort(labels, kind="stable")
    return labels, np.split(members, np.cumsum(np.bincount(labels))[:-1])


def closure_with_audit(ring, n: int, perm_for, witness: str, *, seed,
                       audits):
    """Orbits of {0..n-1} under the action of a group generated by e^g.

    ``perm_for(g)`` is the index permutation by which e^g acts.  Orbits are
    closed under the basis generators g = ±e_i of the ring, then a seeded
    audit checks that ``audits`` random full elements g each map every orbit
    to itself, guarding the assumption that the generators generate.  A
    failed audit raises StabilityCheckFailed(witness.format(g=g)).  Returns
    (labels, orbits) as permutation_orbits does.
    """
    perms = [perm_for(ring.scale(ring.basis(i), sgn))
             for i in range(ring.rank) for sgn in (1, -1)]
    labels, orbits = permutation_orbits(n, perms)
    rng = np.random.default_rng(seed)
    for _ in range(audits):
        g = tuple(int(rng.integers(0, s)) for s in ring.sizes)
        if not np.array_equal(labels[perm_for(g)], labels):
            raise StabilityCheckFailed(witness.format(g=g))
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
    """Grid indices of g x g^-1 over every x; ``conjugate_batch`` returns
    canonical residues, so they index the grid without a reduction."""
    return group.conjugate_batch(g, group.elements) @ group.ring.grid.strides


def conjugacy_classes(group: LazardGroup, *, seed=0, audits=50,
                      cap=ORDER_CAP) -> ConjClassPartition:
    """Exact conjugacy classes, with a seeded random stability audit.

    The partition is kept on the group under (seed, audits), so every check
    that shares the group shares one closure and one audit.
    """
    n = len(group)
    if n > cap:
        raise ValueError(f"|G| = {n} exceeds the cap {cap}")
    key = (seed, audits)
    if key not in group.partitions:
        group.partitions[key] = _audited_classes(group, seed, audits)
    return group.partitions[key]


def _audited_classes(group, seed, audits):
    """The closure, audit and sanity checks behind conjugacy_classes."""
    n = len(group)
    ring = group.ring
    labels, classes = closure_with_audit(
        ring, n, lambda g: _conjugation_perm(group, g),
        "conjugation by {g} moves elements across classes", seed=seed,
        audits=audits)
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


def class_matrix(group, part, a):
    """Burnside's class matrix M_a as an (r, r) integer array.

    (M_a)_{b,c} counts pairs x in C_a, y in C_b with x y = z_c, the
    representative of class c: the x in C_a with x^{-1} z_c in C_b.
    """
    r = len(part)
    b = part.labels[translates(group, GROUP, part.classes[a], part.reps)]
    flat = b * r + np.arange(r, dtype=np.int64)
    return np.bincount(flat.ravel(), minlength=r * r).reshape(r, r)


def _central_characters(group, part, weights, identity_class, gap):
    """Central characters from one weighted sum of class matrices, grown
    over a size-ordered prefix of the classes.

    The vector (omega(c))_c of any central character is a common right
    eigenvector of the class matrices M_a, with eigenvalue omega(a), so it
    is an eigenvector of every combination of them.  Once the eigenvalues
    of a combination are distinct, each eigenspace is a line and its
    eigenvectors are the central characters up to scale: the classes left
    out of the sum would not change them.  Classes enter smallest first
    (ties by index), the prefix doubling from 8, one ``eig`` per prefix.
    Returns (omega, eigs): omega[c, i] = omega_i(c), or None if even the
    full sum fails the gap or identity check, and the ``eig`` calls made.
    """
    r = len(part)
    order = np.argsort(part.sizes, kind="stable")
    combined = np.zeros((r, r))
    used = eigs = 0
    while used < r:
        prefix = min(max(2 * used, 8), r)
        for a in order[used:prefix]:
            combined += weights[a] * class_matrix(group, part, a)
        used = prefix
        vals, vecs = np.linalg.eig(combined)
        eigs += 1
        dist = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(dist, np.inf)
        if dist.min() < gap:
            continue
        at_identity = vecs[identity_class, :]
        if np.min(np.abs(at_identity)) < 1e-12:
            continue
        return vecs / at_identity[None, :], eigs
    return None, eigs


def _row_order(degrees, rows):
    """Row order of a character table: by degree, then by the values rounded
    to 8 decimals, column by column; ties keep their order.  Values round as
    np.round rounds them, which is what ``round`` does to numpy scalars."""
    parts = np.round(np.stack([rows.real, rows.imag], axis=-1), 8)
    keys = parts.reshape(len(rows), -1).T[::-1]
    return np.lexsort(np.vstack([keys, np.asarray(degrees)[None, :]])).tolist()


def character_table(group: LazardGroup, *, seed=0, retries=8, gap=1e-6,
                    class_cap=CLASS_CAP, tol=1e-8) -> CharTable:
    """Full complex character table via the Burnside class-matrix method.

    The weights of the class matrices are one seeded standard normal draw
    per retry; a retry, with the next weights, happens only when the sum
    over all classes still has an eigenvalue gap below ``gap``.  Each
    attempt grows its sum over a prefix of the classes until the spectrum
    separates (``_central_characters``).  ``attempts`` on the result is the
    number of ``eig`` decompositions run, minus one.
    """
    part = conjugacy_classes(group, seed=seed)
    r = len(part)
    if r > class_cap:
        raise ValueError(f"{r} classes exceed the cap {class_cap}")
    n = len(group)
    sizes = part.sizes.astype(np.float64)
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((retries, r))
    identity_class = part.class_of(group.index_of(group.ring.zero()))

    eigs = 0
    for attempt in range(retries):
        omega, runs = _central_characters(group, part, weights[attempt],
                                          identity_class, gap)
        eigs += runs
        if omega is None:
            continue
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
                         rounded[key].astype(np.int64), seed, eigs - 1)
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
    idx = sub.ambient_indices()
    return complex(np.vdot(chi_k.values, chi_g.values[idx]) / len(idx))
