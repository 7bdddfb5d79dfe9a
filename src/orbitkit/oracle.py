"""Brute-force character theory for Lazard groups: the ground truth side.

Conjugacy classes are the orbits of conjugation by the basis exponentials
e^{e_i}, which one exact certificate per group, built from the CH law
alone, proves to generate G and to act as exp(ad e_i)
(``conjugation_certificate``).  That certificate is the group's one
class-algebra object, a ``ConjClassPartition`` holding the certified
matrices, the classes and their inverse classes, and the orbit side reads
it too.  The character table is computed with the Burnside
class-matrix method with Dixon-Schneider splitting: a seeded random linear
combination of the class matrices is diagonalized, and its eigenvectors
are the central characters once the eigenvalues separate.  Rescaled by
the square roots of the class sizes, the combination is a normal matrix
whose transpose is the combination over the inverse classes, so one real
symmetric ``eigh`` of its symmetric part and small blocks for the complex
conjugate pairs diagonalize it, and one class of each inverse pair gives
the counts of both.  The combination grows over the classes in size
order, the prefix doubling, and stops at the first prefix whose spectrum
separates, which is usually a small part of the class algebra.  A prefix
whose classes lie in a proper subgroup cannot separate, and one F_p rank
on the Frattini quotient detects that, so such a prefix is summed but not
tested.  Degrees follow from the first orthogonality relation, and both
orthogonality relations gate the result.

Nothing here computes coadjoint orbits; agreement with the orbit side is
established by ``match_tables``.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import (AutomorphismCheckFailed, DegenerateSpectrum,
                     DomainMismatch, NoMatching, StabilityCheckFailed,
                     ValidationFailed)
from .harmonic import _BLOCK_CELLS, GROUP, ClassFunction, translates
from .liering import LazardGroup, Subring, negate
from .modlin import cyclic_basis

ORDER_CAP = 10 ** 5
CLASS_CAP = 512
# character_table: weight draws before DegenerateSpectrum, the least
# distance between eigenvalues that counts as separated, and the bound on
# both orthogonality deviations
RETRIES = 8
GAP = 1e-6
ORTHOGONALITY_TOL = 1e-8


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


class ConjClassPartition:
    """The class algebra of a Lazard group: its certified conjugation
    generators and its conjugacy classes as index sets over its enumeration.

    ``matrices[i]`` is B_s for s = e^{e_i}: row j is the image of e_j under
    conjugation by s, so conjugation by s is x -> x B_s mod the moduli and
    B_s is exp(ad e_i) transposed.  Classes are ordered by their smallest
    member, and the representatives are those members.  Grid index 0 is the
    identity, so the identity class is class 0.  ``inverse[a]`` is a*, the
    class of -z_a, the inverse of the representative z_a.
    """

    __slots__ = ("group", "matrices", "labels", "classes", "reps", "sizes",
                 "inverse")

    def __init__(self, group: LazardGroup, matrices, labels, classes):
        self.group = group
        self.matrices = matrices
        self.labels = labels
        self.classes = classes
        self.reps = [int(c[0]) for c in classes]
        self.sizes = np.array([len(c) for c in classes], dtype=np.int64)
        ring = group.ring
        self.inverse = labels[negate(group.elements[self.reps], ring._mods)
                              @ ring.grid.strides]

    def __len__(self):
        return len(self.classes)

    def __repr__(self):
        return (f"ConjClassPartition({len(self)} classes, "
                f"|G|={len(self.labels)})")


def _right_perm(group: LazardGroup, g) -> np.ndarray:
    """Grid indices of x g over every x; ``ch_batch`` returns canonical
    residues, so they index the grid without a reduction."""
    return (group.ring.ch_batch(group.elements, np.asarray(g, np.int64))
            @ group.ring.grid.strides)


def _left_perm(group: LazardGroup, g) -> np.ndarray:
    """Grid indices of g x over every x, canonical as above."""
    return (group.ring.ch_batch(np.asarray(g, np.int64), group.elements)
            @ group.ring.grid.strides)


def conjugation_certificate(group: LazardGroup) -> ConjClassPartition:
    """The group's conjugation certificate, built on first use and kept on
    the group, so every closure that shares the group shares one check.

    The generators are s = e^{e_i}, one per basis vector, and three exact
    checks run on the CH law alone:

    * Generation.  The right multiplications x -> x s are permutations of
      G; the orbit of the identity under them is the subgroup they
      generate.  There must be one orbit, else StabilityCheckFailed names
      the subgroup's order.
    * Linearity.  Conjugation by s must be x -> x B_s mod the moduli, with
      row j of B_s the image of e_j, at every element; else
      AutomorphismCheckFailed names the first grid index where it is not.
      It is checked with one product per element: s x s^-1 = x B_s exactly
      when s x = (x B_s) s, and the right multiplications by s are the
      permutations of the generation check.
    * Adjoint.  B_s must equal exp(ad e_i) (transposed to act on rows)
      exactly; else AutomorphismCheckFailed names the first basis vector
      whose images differ.

    Why this suffices.  Conjugation, Ad(g) x = g x g^-1, is a homomorphism
    from G to the permutations of G, so the Ad(s) generate Ad(G) once the s
    generate G; and the orbits of a finite set under a set of permutations
    are its orbits under the group they generate.  So the orbits of the
    generators' conjugation permutations are the conjugacy classes.  By
    linearity Ad(s) acts on the coordinates as x -> x B_s, and the adjoint
    check makes B_s exp(ad e_i), an automorphism of g (make_ring validates
    the bracket on the moduli) and the matrix the orbit side applies.  The
    dual maps f -> f o Ad(s) then generate the coadjoint action of G on g*,
    so their orbits are the coadjoint orbits with no sampled audit.
    Restriction to the Ad(G)-stable lattice 2g commutes with them and is
    onto, so the coadjoint orbits in (2g)* are the images of those in g*.

    The classes are closed in the same pass.  The certificate is the
    class partition, which keeps the rank x rank matrices but not the
    full-grid permutations.
    """
    if group.certificate is None:
        group.certificate = _certify(group)
    return group.certificate


def _certify(group: LazardGroup) -> ConjClassPartition:
    """The three checks and the class closure behind
    conjugation_certificate."""
    ring, n = group.ring, len(group)
    gens = [ring.basis(i) for i in range(ring.rank)]
    rights = [_right_perm(group, s) for s in gens]
    _, cosets = permutation_orbits(n, rights)
    if len(cosets) > 1:
        raise StabilityCheckFailed(
            f"the basis exponentials generate a subgroup of order "
            f"{len(cosets[0])}, not all {n} elements of G")

    basis = np.eye(ring.rank, dtype=np.int64)
    matrices, perms = [], []
    for s, right in zip(gens, rights):
        B = group.conjugate_batch(s, basis)
        linear = ring.grid.linear_perm(B)
        left = _left_perm(group, s)
        bad = np.flatnonzero(left != right[linear])
        if bad.size:
            # s x s^-1 is the y with y s = s x
            x = int(bad[0])
            y = int(np.flatnonzero(right == left[x])[0])
            raise AutomorphismCheckFailed(
                f"conjugation by e^{s} is not linear: grid index {x} goes "
                f"to {y}, x B_s to {int(linear[x])}")
        expected = ring.exp_ad_matrix(s).T
        wrong = np.flatnonzero(np.any(B != expected, axis=1))
        if wrong.size:
            j = int(wrong[0])
            raise AutomorphismCheckFailed(
                f"conjugation by e^{s} maps e_{j} to {tuple(B[j].tolist())}, "
                f"exp(ad {s}) to {tuple(expected[j].tolist())}")
        matrices.append(B)
        perms.append(linear)

    labels, classes = permutation_orbits(n, perms)
    part = ConjClassPartition(group, tuple(matrices), labels, classes)
    if part.sizes[0] != 1:
        raise StabilityCheckFailed("identity class is not a singleton")
    if any(n % s for s in part.sizes):
        raise StabilityCheckFailed("a class size does not divide |G|")
    return part


def conjugacy_classes(group: LazardGroup) -> ConjClassPartition:
    """Exact conjugacy classes: the group's conjugation certificate
    (``conjugation_certificate``), one per group, for groups of order up to
    ``ORDER_CAP``."""
    n = len(group)
    if n > ORDER_CAP:
        raise ValueError(f"|G| = {n} exceeds the cap {ORDER_CAP}")
    return conjugation_certificate(group)


class CharTable:
    """Irreducible characters as rows over class representatives.

    ``rows[i, c]`` is the i-th character at the representative of class c;
    rows are sorted by degree and then by rounded values, so the table is
    deterministic for a fixed seed.
    """

    __slots__ = ("partition", "rows", "degrees", "attempts")

    def __init__(self, partition, rows, degrees, attempts):
        self.partition = partition
        self.rows = rows
        self.degrees = degrees
        self.attempts = attempts

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return (f"CharTable({len(self)} irreducibles, "
                f"degrees up to {int(self.degrees.max(initial=1))})")


def _class_blocks(part, classes):
    """Runs of consecutive ``classes`` whose members pair with the r
    representatives in at most ``_BLOCK_CELLS`` cells; a class with more
    cells than that is a run of its own."""
    r = len(part)
    block, cells = [], 0
    for a in classes:
        size = int(part.sizes[a]) * r
        if block and cells + size > _BLOCK_CELLS:
            yield block
            block, cells = [], 0
        block.append(a)
        cells += size
    if block:
        yield block


def _block_labels(part, classes, law):
    """(block, labels) per run of ``_class_blocks``: labels[h, c] is the
    class of x^{-1} z_c under ``law``, x the run's h-th member."""
    for block in _class_blocks(part, classes):
        rows = np.concatenate([part.classes[a] for a in block])
        yield block, part.labels[translates(part.group, law, rows,
                                            part.reps)]


def class_matrices(part, classes):
    """(a, M_a) for each class a of ``classes``, in that order: Burnside's
    class matrix M_a as an (r, r) integer array.

    (M_a)_{b,c} counts pairs x in C_a, y in C_b with x y = z_c, the
    representative of class c: the x in C_a with x^{-1} z_c in C_b.  One
    ``translates`` call serves each run of ``_class_blocks``, and each
    class's labels are counted by one ``bincount``.
    """
    r = len(part)
    cols = np.arange(r, dtype=np.int64)
    for block, flat in _block_labels(part, classes, GROUP):
        flat *= r
        flat += cols
        ends = np.cumsum(part.sizes[block])[:-1]
        for a, counts in zip(block, np.split(flat, ends)):
            yield a, np.bincount(counts.ravel(),
                                 minlength=r * r).reshape(r, r)


def _key_dtype(count, r):
    """int32 if it holds the largest key of ``count`` classes, count r^2 - 1,
    else int64."""
    return np.int32 if count * r * r <= np.iinfo(np.int32).max else np.int64


def class_keys(part, classes, law=GROUP, rows=None):
    """(block, keys) per run of ``_class_blocks``: the sorted keys
    (t r + b) r + c, one per member x of the run's t-th class a and class
    c, b the class of x^{-1} z_c under ``law``, kept when b is in ``rows``
    (every class when None).  Key (t r + b) r + c occurs (M_a)_{b,c}
    times, M_a the class matrix under ``law``, so two laws' keys agree
    exactly when the run's class matrices agree in those rows; no r x r
    matrix is formed.  The keys are int32 where ``_key_dtype`` allows,
    which sorts them faster in the same order.
    """
    r = len(part)
    keep = None
    if rows is not None:
        keep = np.zeros(r, dtype=bool)
        keep[rows] = True
    for block, labels in _block_labels(part, classes, law):
        kind = _key_dtype(len(block), r)
        t = np.repeat(np.arange(len(block), dtype=kind) * r,
                      part.sizes[block])
        keys = ((labels.astype(kind) + t[:, None]) * r
                + np.arange(r, dtype=kind)).ravel()
        if keep is not None:
            keys = keys[keep[labels].ravel()]
        keys.sort()
        yield block, keys


def _split(N, gap):
    """Unit eigenvectors of a normal matrix N as columns, or None if two of
    its eigenvalues lie less than ``gap`` apart.

    N + N^T has the eigenvalues 2 Re(lambda_i) on N's eigenvectors, so one
    real symmetric ``eigh`` of it splits the spectrum wherever consecutive
    eigenvalues differ by at least 2·gap: eigenvalues on either side of a
    cut are at least ``gap`` apart.  Each cluster of d > 1 eigenvalues
    spans an N-invariant subspace with an orthonormal basis Q, and the
    eigenvectors y of Q^T N Q give those of N as Q y; one stacked ``eig``
    per cluster size decomposes them, and within a cluster the eigenvalues
    must be pairwise ``gap`` apart.  Together this is the test that every
    two eigenvalues of N are at least ``gap`` apart.
    """
    r = len(N)
    vals, vecs = np.linalg.eigh(N + N.T)
    starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) >= 2 * gap)
    lengths = np.diff(starts, append=r)
    u = vecs.astype(np.complex128)
    for d in sorted(set(lengths.tolist()) - {1}):
        cols = starts[lengths == d][:, None] + np.arange(d)
        Q = vecs[:, cols].transpose(1, 0, 2)
        lam, y = np.linalg.eig(Q.transpose(0, 2, 1) @ N @ Q)
        dist = np.abs(lam[:, :, None] - lam[:, None, :])
        dist[:, np.arange(d), np.arange(d)] = np.inf
        if dist.min() < gap:
            return None
        u[:, cols] = (Q @ y).transpose(1, 0, 2)
    return u


def _stages(count):
    """(used, prefix) of each stage of the size-ordered sum over ``count``
    classes: the prefix doubles from 8 and ends at ``count``."""
    used = 0
    while used < count:
        prefix = min(max(2 * used, 8), count)
        yield used, prefix
        used = prefix


def _prefix_plan(part):
    """(order, first): the classes a <= a* in the order they enter the sum,
    smallest first (ties by index), and the prefix of the first stage that
    is tested.

    The Frattini certificate.  Every CH term of degree d >= 2 lies in
    pL + [L, L], with L the ring; ``make_ring`` admits only rings where
    this holds.  A term is q times a bracket of degree d, and q's
    denominator has p-adic valuation a.  In the class < p regime the
    series stops below degree p, so a = 0 and the term lies in [L, L].
    In the uniform regime the constants lift with valuation t >= 1, or
    t >= 2 at p = 2, so the bracket lies in p^(t(d-1)) L; the truncation
    degree rests on a <= (d - 1)/(p - 1), so a < t(d - 1) and the term
    lies in pL.  Hence x -> x + (pL + [L, L]) is a homomorphism from the
    group G onto the elementary abelian group V = L / (pL + [L, L]).

    Say the representatives of a prefix, with pL + [L, L], do not span L
    over F_p.  Then some nonzero linear f: V -> F_p vanishes on all of
    them, and lambda = zeta_p^f is a linear character of G other than 1.
    It is trivial on every prefix class, since f is constant on classes
    (V is abelian), and on its inverse class.  So its central character
    omega_lambda(a) = |C_a| lambda(z_a) equals omega_1(a) = |C_a| at
    every class of the sum, the sum has one eigenvalue on the trivial
    character and on lambda, and the stage cannot separate: ``_split``
    can see only round-off between the two, far below ``GAP``.  Such a
    stage is summed but not tested.  Its sum still grows through the same
    stages and blocks, so the first tested stage, its sums and the table
    are those of testing every stage.

    The weights do not enter, so one plan serves every retry.  The span
    is one ``cyclic_basis`` over F_p per stage, of the last stage's basis
    and the stage's new representatives; the first stage also takes the
    brackets [e_i, e_j], which span the image of [L, L].  The
    representatives of all classes span, as every element is conjugate
    to one, so the last stage is always tested.
    """
    order = [a for a in np.argsort(part.sizes, kind="stable").tolist()
             if a <= part.inverse[a]]
    ring = part.group.ring
    p = ring.p
    basis = [[row.get(m, 0) % p for m in range(ring.rank)]
             for row in ring.constants.values()]
    reps = part.group.elements[part.reps] % p
    for used, prefix in _stages(len(order)):
        added = dict.fromkeys(map(tuple, reps[order[used:prefix]].tolist()))
        basis = cyclic_basis(basis + list(added), p, p)
        if len(basis) == ring.rank:
            break
    return order, prefix


def _central_characters(part, plan, weights, gap):
    """Central characters from one weighted sum of class matrices in
    symmetric form, grown over a size-ordered prefix of the classes.

    The vector (omega(c))_c of any central character is a common right
    eigenvector of the class matrices M_a, with eigenvalue omega(a), so it
    is an eigenvector of every combination of them.  Once the eigenvalues
    of a combination are distinct, each eigenspace is a line and its
    eigenvectors are the central characters up to scale: the classes left
    out of the sum would not change them.

    Symmetric form.  Counting the triples x y = w with x in C_a, y in C_b,
    w in C_c two ways gives Burnside's relation |C_c| M_a[b, c] =
    |C_b| M_{a*}[c, b], where a* is the class of the inverses of C_a:
    M_{a*} = S M_a^T S^-1 with S = diag(|C_c|).  With D = diag(sqrt|C_c|)
    and N_a = D^-1 M_a D this reads N_{a*} = N_a^T.  The N_a commute and
    share the eigenvectors u_i = D^-1 omega_i, which are orthogonal, since
    sum_c omega_i(c) conj(omega_j(c)) / |C_c| = 0 for i != j (the first
    orthogonality relation).  So N = sum_a w_a N_a with real weights is
    normal, N + N^T has the eigenvalues 2 Re(lambda_i), and ``_split``
    diagonalizes N with a real ``eigh`` and small blocks.  The weights of
    a and a* are independent: were they equal, N would be symmetric and a
    character and its complex conjugate would share an eigenvalue.

    Prefix.  One class of each inverse pair, a <= a*, enters the sum in
    the order of ``plan`` (``_prefix_plan``), the prefix doubling from 8:
    only the members of C_a are translated, and their labels give both
    w_a M_a and w_{a*} M_{a*}, one weighted bincount per block of about
    ``_BLOCK_CELLS`` cells.  A stage before the plan's first tested prefix
    is summed and not tested.  Returns (omega, tests): omega[c, i] =
    omega_i(c), or None if even the full sum fails the gap or identity
    check, and the number of prefixes tested.
    """
    r = len(part)
    root = np.sqrt(part.sizes.astype(np.float64))
    star = part.inverse
    order, first = plan
    # w_a and w_{a*} for each class a; a real class's counts enter once
    pair_weights = np.stack(
        [weights, np.where(star != np.arange(r), weights[star], 0.0)])
    step = max(1, _BLOCK_CELLS // r)
    cells = np.arange(r, dtype=np.int64)
    # sum_a w_a M_a and sum_a w_{a*} M_a over the prefix, stacked flat
    sums = np.zeros(2 * r * r)
    tests = 0
    for used, prefix in _stages(len(order)):
        added = order[used:prefix]
        rows = np.concatenate([part.classes[a] for a in added])
        row_weights = np.repeat(pair_weights[:, added], part.sizes[added],
                                axis=1)
        for lo in range(0, len(rows), step):
            block = slice(lo, lo + step)
            b = part.labels[translates(part.group, GROUP, rows[block],
                                       part.reps)]
            flat = (b * r + cells).ravel()
            sums += np.bincount(
                np.concatenate([flat, flat + r * r]),
                np.repeat(row_weights[:, block], r, axis=1).ravel(),
                minlength=2 * r * r)
        if prefix < first:
            continue
        # D^-1 X D for both sums; the second enters transposed, as N_{a*}
        A, B = sums.reshape(2, r, r) * root / root[:, None]
        u = _split(A + B.T, gap)
        tests += 1
        if u is None:
            continue
        omega = root[:, None] * u
        # the identity's class is class 0
        at_identity = omega[0, :]
        if np.min(np.abs(at_identity)) < 1e-12:
            continue
        return omega / at_identity[None, :], tests
    return None, tests


def _row_order(degrees, rows):
    """Row order of a character table: by degree, then by the values rounded
    to 8 decimals, column by column; ties keep their order.  Values round as
    np.round rounds them, which is what ``round`` does to numpy scalars."""
    keys = np.round(np.stack([rows.real, rows.imag], axis=-1), 8)
    keys = np.column_stack([np.asarray(degrees), keys.reshape(len(rows), -1)])
    return np.lexsort(keys.T[::-1]).tolist()


def character_table(group: LazardGroup, *, seed=0) -> CharTable:
    """Full complex character table via the Burnside class-matrix method.

    Each attempt draws one standard normal weight per class from
    ``random.Random(seed)``, the next attempt continuing the same stream;
    a retry happens only when the sum over all classes still has two
    eigenvalues closer than ``GAP``, and after ``RETRIES`` attempts the
    table fails with DegenerateSpectrum.  Each attempt grows its sum over
    a prefix of the classes until the spectrum separates
    (``_central_characters``); a prefix whose classes lie in a proper
    subgroup is summed but not tested (``_prefix_plan``, worked out once
    for every attempt).  Both orthogonality relations must hold to
    ``ORTHOGONALITY_TOL``.  ``attempts`` on the result is the number of
    prefixes tested, over all attempts, minus one; a skipped prefix does
    not count, so it reads 0 on every ring in ``specs/``.  Groups with
    more than ``CLASS_CAP`` classes are refused.
    """
    part = conjugacy_classes(group)
    r = len(part)
    if r > CLASS_CAP:
        raise ValueError(f"{r} classes exceed the cap {CLASS_CAP}")
    n = len(group)
    sizes = part.sizes.astype(np.float64)
    rng = random.Random(seed)
    plan = _prefix_plan(part)

    tests = 0
    for _ in range(RETRIES):
        weights = np.array([rng.gauss(0.0, 1.0) for _ in range(r)])
        omega, runs = _central_characters(part, plan, weights, GAP)
        tests += runs
        if omega is None:
            continue
        norms = (np.abs(omega) ** 2 / sizes[:, None]).sum(axis=0)
        degrees = np.sqrt(n / norms)
        rounded = np.rint(degrees)
        if np.max(np.abs(degrees - rounded)) > 1e-6:
            raise ValidationFailed(
                f"degrees {degrees} are not integers to 1e-6")
        rows = (rounded[None, :] * omega / sizes[:, None]).T
        del omega

        # each gate subtracts its diagonal target in place, through a
        # strided view of the diagonal; off the diagonal the target is 0.
        # The gates share one conjugate, and each r x r temporary is freed
        # before the next is built.
        conj = rows.conj()
        row_orth = (rows * sizes[None, :]) @ conj.T
        row_orth /= n
        row_orth.reshape(-1)[::r + 1] -= 1.0
        dev_row = np.max(np.abs(row_orth))
        del row_orth
        col_orth = rows.T @ conj
        del conj
        target = n / sizes
        col_orth.reshape(-1)[::r + 1] -= target
        dev = np.abs(col_orth)
        # relative on the diagonal, where the target n / |C_c| is >= 1
        dev.reshape(-1)[::r + 1] /= target
        dev_col = np.max(dev)
        if dev_row > ORTHOGONALITY_TOL or dev_col > ORTHOGONALITY_TOL:
            raise ValidationFailed(
                f"orthogonality deviation row={dev_row:.2e} "
                f"col={dev_col:.2e} exceeds {ORTHOGONALITY_TOL}")

        key = _row_order(rounded, rows)
        return CharTable(part, rows[key], rounded[key].astype(np.int64),
                         tests - 1)
    raise DegenerateSpectrum(
        f"eigenvalue gap stayed below {GAP} for {RETRIES} retries")


class MatchReport:
    """A certified bijection between candidate characters and table rows."""

    __slots__ = ("assignment", "deviations")

    def __init__(self, assignment, deviations):
        self.assignment = tuple(assignment)
        self.deviations = deviations

    @property
    def max_deviation(self) -> float:
        return float(max(self.deviations, default=0.0))

    def __repr__(self):
        return (f"MatchReport({len(self.assignment)} rows, "
                f"max deviation {self.max_deviation:.2e})")


def match_tables(characters, table: CharTable, tol=1e-8) -> MatchReport:
    """Perfect matching of candidate characters against oracle table rows.

    The candidates are rows of values at the r class representatives (a
    (k, r) array, else DomainMismatch); row j is allowed for candidate i
    when the max deviation is below ``tol``, which must be below 0.7.
    Then each candidate has at most one allowed row.  The table passed its
    row-orthogonality gate, so for any two rows
    |<chi_i, chi_j> - delta_ij| <= ``ORTHOGONALITY_TOL`` = 1e-8, and
    for distinct rows

      sum_c |C_c|/|G| |chi_i(z_c) - chi_j(z_c)|^2
        = <chi_i, chi_i> + <chi_j, chi_j> - 2 Re <chi_i, chi_j>
        >= 2 - 4e-8.

    The weights |C_c|/|G| sum to 1, so the two rows differ by more than
    1.414 at some class, and a candidate within tol < 0.7 of both would
    put them within 1.4 of each other there.  The matching is therefore
    the unique assignment of each candidate to its allowed row, and the
    largest matching has as many edges as there are distinct allowed rows.
    It is perfect, else NoMatching, when every candidate has its own
    allowed row and there are as many candidates as rows.
    """
    if not tol < 0.7:
        raise ValueError(f"match tolerance {tol} is not below 0.7")
    cand, r = np.asarray(characters), len(table.rows)
    if cand.shape[1:] != (r,):
        raise DomainMismatch(f"candidates of shape {cand.shape} are not "
                             f"values at {r} class representatives")
    k = len(cand)
    dev = np.zeros((k, r))
    for i in range(k):
        dev[i] = np.max(np.abs(cand[i][None, :] - table.rows), axis=1)
    allowed = dev < tol
    # the first allowed row, the only one; row 0 when there is none
    assignment = np.argmax(allowed, axis=1)
    found = allowed[np.arange(k), assignment]
    matched = len(set(assignment[found].tolist()))
    if matched != k or k != r:
        raise NoMatching(
            f"matched {matched} of {k} candidates against {r} rows")
    deviations = [float(dev[i, j]) for i, j in enumerate(assignment)]
    return MatchReport(assignment.tolist(), deviations)


def restriction_multiplicity(group: LazardGroup, sub: Subring,
                             chi_g: ClassFunction, chi_k: ClassFunction):
    """<chi_g|_K, chi_k> over K = exp of the subring, mass-1 Haar on K; for
    stacks of functions, one per row, the pairing of row i of ``chi_g``
    with row j of ``chi_k`` at [i, j]."""
    if not isinstance(chi_g.domain, LazardGroup):
        raise DomainMismatch("chi_g must live on the ambient group")
    if chi_g.domain.ring is not group.ring or sub.ring is not group.ring:
        raise DomainMismatch("group, subring and chi_g disagree on the ring")
    ring_k = (chi_k.domain.ring if isinstance(chi_k.domain, LazardGroup)
              else chi_k.domain)
    if ring_k is not sub.induced:
        raise DomainMismatch("chi_k must live on the subring's induced ring")
    idx = sub.ambient_indices()
    return chi_g.values[..., idx] @ chi_k.values.conj().T / len(idx)
