"""Coadjoint orbits, orbit characters, and the verification suites.

Each function takes the group G = exp(g) (the p = 2 cells its oracle
table, which holds G) and reads G's one certificate; none builds a group.

The coadjoint action is carried out exactly on exponent vectors: a
character f with weight row w (exponents scaled onto a common modulus p^K)
moves to w' = w @ M under f -> f o Ad(s), M the column matrix of Ad(s),
and w' divides back down to an exponent vector because Ad(s) is an
automorphism of g.  The matrices are those of the group's conjugation
certificate (``oracle.conjugation_certificate``), the one class partition
per group that the class-algebra checks below read too.  It proves that
the basis exponentials s = e^{e_i} generate G and act by exp(ad e_i), so
the orbits under their dual maps are exactly the coadjoint orbits, in g*
and, restricted to 2g, in (2g)*; no orbit is audited by sampling.

The orbit character chi(e^x) = |Omega|^{-1/2} sum_{f in Omega} f(x) is the
inverse Fourier transform of the orbit's indicator, one library FFT on the
ring's grid, checked constant on every conjugacy class; orbit membership
stays exact, the values carry the FFT's round-off.  The convolution-identity
suites reduce exhaustive claims about conjugation-invariant functions to
class-indicator pairs (bilinearity) and compare the integer counts
N_a[b, c] = #{h in C_a : h^{-1} x_c in C_b} under both laws, so those
checks are exact at every group order.  The certified generators act
additively, so the additive counts are constant on classes as the group
counts are, and both laws are counted at the class representatives only,
as r x r matrices (``oracle.class_matrix`` under either law).  The
idempotent suite checks that each orbit idempotent is constant on the
oracle's classes and multiplies the idempotents in the class algebra,
again through Burnside's class matrices, so every suite runs at any group
order without an n x n table.

``kirillov_character`` returns the character's values on G.  The exact
suites (exp* here and the p = 2 counts, like ``liering``'s twist check)
raise their failure with its witness and return only what a pass leaves to
report; the idempotent suite returns its measured deviations, with
``passed`` and the witness, since a near-miss is read off those.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (PartitionFailure, PropertyFailed, RegimeViolation,
                     UnexpectedFailure)
from .harmonic import (ADDITIVE, ClassFunction, DualFunction, DualSpace,
                       exp_star, fourier, inverse_fourier)
from .liering import LazardGroup, Subring, min_uniform_depth
from .oracle import (class_matrix, conjugacy_classes, conjugation_certificate,
                     permutation_orbits)

# The order limit of the n x n idempotent table that verify_idempotents
# no longer builds.  Nothing in src/ reads it; perfbench's tests import it,
# and it goes with the next benchmark change (ROADMAP item 1).
_TABLE_LIMIT = 2048

# How far an orbit character may vary on a conjugacy class
# (kirillov_character); its values carry the FFT's round-off.
CONSTANCY_TOL = 1e-9


class CoadjointOrbit:
    """A G-orbit in the dual, held as sorted indices into a DualSpace.

    The indices are rows of the space's exponent table, so the orbit's
    characters are ``space.exponents[indices]``; the first is its smallest
    member, which the repr prints.  The orbit enters the character formula
    through its indicator function on g*.
    """

    __slots__ = ("space", "indices")

    def __init__(self, space: DualSpace, indices):
        self.space = space
        self.indices = np.asarray(indices, dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self.indices)

    def indicator(self) -> DualFunction:
        vals = np.zeros(len(self.space))
        vals[self.indices] = 1.0
        return DualFunction(self.space.ring, vals)

    def __repr__(self):
        first = tuple(self.space.exponents[self.indices[0]].tolist())
        return f"CoadjointOrbit(size={self.size}, rep={first})"


def _dual_permutation(space: DualSpace, matrix, g, lattice) -> np.ndarray:
    """Index permutation of a dual space under f -> f o Ad(e^g), given the
    column matrix of Ad(e^g) on the coordinates of the space's ring;
    ``lattice`` names the dual in the error when a character leaves it."""
    moved = (space.weights @ matrix) % space.ring.big
    if np.any(moved % space.scale):
        raise PropertyFailed(f"Ad*(e^{tuple(g)}) left the {lattice}")
    return space.ring.grid.index_batch(moved // space.scale)


def coadjoint_orbits(group: LazardGroup) -> list[CoadjointOrbit]:
    """Partition of g* into coadjoint orbits, ordered by smallest member.

    g* is closed under the duals f -> f o Ad(s) of the certified matrices
    of ``group``'s conjugation certificate; the module docstring says why
    these orbits are exact.
    """
    ring = group.ring
    space = DualSpace(ring)
    perms = [_dual_permutation(space, B.T, ring.basis(i), "character lattice")
             for i, B in enumerate(conjugation_certificate(group).matrices)]
    _, orbit_sets = permutation_orbits(len(space), perms)
    return [CoadjointOrbit(space, idx) for idx in orbit_sets]


def kirillov_character(group: LazardGroup,
                       orbit: CoadjointOrbit) -> ClassFunction:
    """The orbit character chi_Omega on G, via the identity coordinate map
    exp, as its values on G.

    The orbit size must be a perfect square (its root is the degree), and
    the character must be constant on every conjugacy class, exactly as
    the group's conjugation certificate closes them (the classes behind
    ``coadjoint_orbits``, with no order cap): max_x |chi(x) - chi(z_[x])|
    <= ``CONSTANCY_TOL``, z_[x] the representative of the class of x, else
    PropertyFailed names the deviation and the first grid index where it
    is largest.
    """
    size = orbit.size
    root = math.isqrt(size)
    if root * root != size:
        raise PropertyFailed(f"orbit size {size} is not a perfect square")
    part = conjugation_certificate(group)
    vals = inverse_fourier(orbit.indicator()).values / root
    spread = np.abs(vals - vals[part.reps][part.labels])
    x = int(np.argmax(spread))
    if spread[x] > CONSTANCY_TOL:
        raise PropertyFailed(
            f"orbit character varies on a conjugacy class: deviation "
            f"{spread[x]:.2e} at grid index {x}")
    return ClassFunction(group, vals)


# -- class-indicator counts ------------------------------------------------------

def _count_mismatch(part, a, rows=None):
    """First (a, b, c), b in ``rows`` (every class when None) and c in G in
    row-major order, where N_a[b, c] = #{h in C_a : h^{-1} x_c in C_b}
    differs between the group and the additive law; None when they agree.

    Convolving the indicators of C_a and C_b gives N_a[b, .]/|G| under each
    law, so agreement for every a is the exact all-pairs intertwining test.
    The two laws are compared as r x r count matrices at the class
    representatives, ``class_matrix`` under each law, and that suffices:

    * The group counts are constant on classes: conjugation by g permutes
      C_a and C_b and maps h^{-1} x_c to (g h g^-1)^{-1} (g x_c g^-1).
    * So are the additive counts N+_a.  Each generator s of the group's
      conjugation certificate acts as x -> x B_s, a map that is additive
      and permutes C_a and C_b, so x_c B_s - x_h B_s = (x_c - x_h) B_s
      gives N+_a[b, c B_s] = N+_a[b, c].  The generators generate G, so
      N+_a is constant on every class.
    * So a mismatch at any c also shows at the representative of its
      class, and the first failing a is the one a count at every element
      finds.

    The witness is read off the same matrices.  Row b of the element-level
    difference is constant on each class, so its first nonzero element is
    the smallest member of the first class where it is nonzero.  The
    representatives are the smallest members and the classes are ordered
    by them, so that element is z_c for the first class c at which row b of
    the two matrices differs, and the first such b in ``rows`` order is the
    first row at which any element differs.
    """
    keep = slice(None) if rows is None else rows
    bad = (class_matrix(part, a)[keep]
           != class_matrix(part, a, ADDITIVE)[keep])
    if not bad.any():
        return None
    b, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return (a, int(b if rows is None else rows[b]), part.reps[c])


# -- verification suites --------------------------------------------------------

# (c, b, i) cells per block of the class-algebra products: a block of
# classes c, each with r x k products, keeps its temporaries a few MB
_CLASS_CELLS = 1 << 18


def _class_algebra_deviations(part, at_reps):
    """Idempotent and orthogonality deviations of class functions, worked
    out in the class algebra.

    ``at_reps`` holds the values e_i(z_a) of k class functions at the class
    representatives z_a, one row each.  Their group convolutions there are

      (e_i * e_j)(z_c) = (1/|G|) sum_a e_i(z_a) sum_b e_j(z_b) M_a[b, c]

    with M_a Burnside's class matrix, and each is compared with
    delta_ij e_i(z_c).  The triples x y = z in C_a x C_b x C_c, counted once
    by (x, y) and once by (z, y^-1), give |C_c| M_a[b, c] = |C_a| M_c[b*, a],
    b* the class of the inverses of C_b (``part.inverse``).  So
    the class matrix of c alone gives every product at z_c:

      (e_i * e_j)(z_c) = (1/(|G| |C_c|)) sum_{b,a} e_j(z_b*) M_c[b, a]
                         |C_a| e_i(z_a).

    Classes c go in blocks of about ``_CLASS_CELLS`` / (r k).  A block is
    one real product of its stacked class matrices with the real and
    imaginary parts of |C_a| e_i(z_a), then two real products of
    [Re e_j(z_b*) | -Im e_j(z_b*)] and [Im e_j(z_b*) | Re e_j(z_b*)] with
    those, so the r^4 work runs as real BLAS and no r x r x r array exists.

    Returns (idempotent deviation, orthogonality deviation, witness).  The
    witness (i, j, grid index of z_c) is the first largest off-diagonal
    deviation in (c, j, i) order, and None when every one is 0.
    """
    n, r, k = len(part.group), len(part), len(at_reps)
    left = at_reps[:, part.inverse]
    fold_re = np.hstack([left.real, -left.imag])
    fold_im = np.hstack([left.imag, left.real])
    right = at_reps * part.sizes
    right = np.hstack([right.real.T, right.imag.T])
    diag = np.arange(k)
    dev_idem = dev_orth = 0.0
    witness = None
    step = max(1, _CLASS_CELLS // (r * k))
    # the class matrices of a block, written in place as float64 (exact:
    # every count is at most |G| < 2^53)
    matrices = np.empty((min(step, r) * r, r))
    for lo in range(0, r, step):
        cs = np.arange(lo, min(r, lo + step))
        s = len(cs)
        stacked = matrices[:s * r]
        for t, c in enumerate(cs):
            stacked[t * r:(t + 1) * r] = class_matrix(part, c)
        # inner[(t, b), (c, i)] = sum_a M_c[b, a] |C_a| e_i(z_a), its real
        # part at t = 0 and its imaginary part at t = 1
        inner = (stacked @ right).reshape(s, r, 2, k).transpose(
            2, 1, 0, 3).reshape(2 * r, s * k)
        scale = (1.0 / (n * part.sizes[cs]))[None, :, None]
        conv_re = (fold_re @ inner).reshape(k, s, k)
        conv_re *= scale
        conv_im = (fold_im @ inner).reshape(k, s, k)
        conv_im *= scale
        del inner
        # conv[j, c, i] = (e_i * e_j)(z_c) - delta_ij e_i(z_c)
        conv_re[diag, :, diag] -= at_reps[:, cs].real
        conv_im[diag, :, diag] -= at_reps[:, cs].imag
        dev = np.hypot(conv_re, conv_im, out=conv_re)
        del conv_im
        dev_idem = max(dev_idem, float(dev[diag, :, diag].max()))
        dev[diag, :, diag] = 0.0
        # the first largest in (c, j, i) order: the first class c holding
        # the block's maximum, then the first (j, i) at c
        c = int(np.argmax(dev.max(axis=(0, 2))))
        j, i = np.unravel_index(int(np.argmax(dev[:, c, :])), (k, k))
        if dev[j, c, i] > dev_orth:
            dev_orth = float(dev[j, c, i])
            witness = (int(i), int(j), part.reps[lo + c])
    return dev_idem, dev_orth, witness


def verify_idempotents(group: LazardGroup, *, tol=1e-8) -> dict:
    """(a)-(d) idempotent package for e_Omega = |Omega|^{1/2} chi_Omega.

    (a) the Fourier transform of e_Omega pulled back to g is the indicator
    of Omega; (b) e_Omega is idempotent under group convolution; (c)
    distinct idempotents annihilate; (d) they sum to |G| delta_identity.
    The classes and orbits come exactly from the group's conjugation
    certificate.

    (b) and (c) run in the class algebra, at every group order.  First each
    e_i must be constant on the oracle's conjugacy classes: the deviation
    d = max_{i,x} |e_i(x) - e_i(z_[x])|, z_[x] the representative of the
    class of x, must be within ``tol``, else the report fails with the
    witness (i, x).  The class-constant e~_i then convolve exactly as class
    functions do, so (e~_i * e~_j) is read off Burnside's class matrices at
    the representatives (``_class_algebra_deviations``), and the witness of
    a failure is (i, j, grid index of z_c).  That is the old all-of-G check
    up to d: with e_i = e~_i + D_i, |D_i| <= d and |(f * g)(x)| <=
    ||f||_2 ||g||_2 (mass-1 Haar norms), at every x in G
      |(e_i * e_j - delta_ij e_i)(x)|
        <= max_c |(e~_i * e~_j - delta_ij e~_i)(z_c)|
           + d (1 + d + ||e_i||_2 + ||e_j||_2),
    and the same with the two sides swapped; ||e_Omega||_2 = |Omega|^{1/2}.
    Characters are consumed one at a time: no n x n or k x n array is
    formed.
    """
    if group.ring.p < 3:
        raise RegimeViolation(f"p = {group.ring.p} < 3")
    n = len(group)
    part = conjugacy_classes(group)
    orbits = coadjoint_orbits(group)
    at_reps = np.empty((len(orbits), len(part)), dtype=np.complex128)
    total = np.zeros(n, dtype=np.complex128)
    dev_fourier, dev_const, const_witness = 0.0, 0.0, None
    for i, orbit in enumerate(orbits):
        row = math.isqrt(orbit.size) * kirillov_character(group, orbit).values
        F = fourier(exp_star(ClassFunction(group, row)))
        ind = np.zeros(n)
        ind[orbit.indices] = 1.0
        dev_fourier = max(dev_fourier, float(np.max(np.abs(F.values - ind))))
        at_reps[i] = row[part.reps]
        spread = np.abs(row - at_reps[i][part.labels])
        x = int(np.argmax(spread))
        if spread[x] > dev_const:
            dev_const, const_witness = float(spread[x]), (i, x)
        total += row

    dev_idem, dev_orth, witness = _class_algebra_deviations(part, at_reps)

    # the identity is grid index 0
    identity_target = np.zeros(n)
    identity_target[0] = n
    dev_complete = float(np.max(np.abs(total - identity_target)))

    if dev_const > tol:
        passed, witness = False, const_witness
    else:
        passed = max(dev_fourier, dev_idem, dev_orth, dev_complete) <= tol
    return {"orbits": len(at_reps), "fourier_indicator": dev_fourier,
            "idempotent": dev_idem, "orthogonal": dev_orth,
            "complete": dev_complete, "passed": passed,
            "witness": None if passed else witness}


def verify_exp_star(group: LazardGroup) -> None:
    """exp* intertwines group and additive convolution on Fun(G)^G.

    The check is exhaustive and exact at every size: class indicators span
    the invariant functions, so by bilinearity it compares the integer
    counts N_a[b, c] of both laws for every pair of classes and every
    element, read at the class representatives (``_count_mismatch`` says
    why that covers every element).  No pair of functions is drawn or
    convolved: every invariant pair follows from the exact counts.  The
    first mismatch raises PropertyFailed with its (a, b, c) as the witness.
    """
    if group.ring.p < 3:
        raise RegimeViolation(f"p = {group.ring.p} < 3")
    part = conjugacy_classes(group)
    for a in range(len(part)):
        hit = _count_mismatch(part, a)
        if hit is not None:
            raise PropertyFailed(f"witness: {hit}")


# -- p = 2 ----------------------------------------------------------------------

class P2Cell:
    """One orbit Omega in (2g)* and the irreducibles (table row indices)
    supported on it."""

    __slots__ = ("orbit", "irreducibles")

    def __init__(self, orbit, irreducibles):
        self.orbit = orbit
        self.irreducibles = tuple(int(i) for i in irreducibles)

    def __repr__(self):
        return (f"P2Cell(|Omega|={self.orbit.size}, "
                f"irreducibles={self.irreducibles})")


def _require_p2_uniform(ring):
    if ring.p != 2:
        raise RegimeViolation(f"p = {ring.p}, the 2-adic machinery needs p = 2")
    need = min_uniform_depth(ring.p)
    if ring.rank and ring.uniform_depth < need:
        raise RegimeViolation(
            f"uniform depth {ring.uniform_depth} < {need}: [g,g] must lie "
            f"in 4g")


def _restricted_action(ring, sub: Subring, matrix, g):
    """The column matrix ``matrix`` of Ad(e^g) on g, restricted to 2g and
    written in the subring basis (column convention)."""
    cols = []
    for b in sub.basis_coords:
        moved = tuple(int(x) for x in (matrix @ np.array(b, dtype=np.int64))
                      % ring._mods)
        try:
            cols.append(sub.express(moved))
        except ValueError as exc:
            raise PropertyFailed(f"Ad(e^{g}) does not preserve 2g") from exc
    k = len(sub.basis_coords)
    return np.array(cols, dtype=np.int64).reshape(k, k).T


def p2_orbit_partition(table, *, tol=1e-8) -> tuple[Subring, list[P2Cell]]:
    """Partition of the irreducibles of G by coadjoint orbits in (2g)*.

    G is the group of the oracle's character ``table``
    (``table.partition.group``).  Returns the subring 2g, whose induced
    ring is the one every cell's orbit lives in the dual of, and the cells.

    For each G-orbit Omega in the dual of 2g, e_Omega extends the inverse
    Fourier transform of the orbit indicator by zero from G^2 = exp(2g) to
    G.  An irreducible rho belongs to the Omega cell when <chi_rho|_{G^2},
    e_Omega> is nonzero; membership is certified by checking that
    chi_rho|_{G^2} is a scalar multiple of e_Omega (normalized-vector
    comparison), and the cells must cover every irreducible exactly once.

    The orbits in (2g)* are closed under the duals of the group's
    certified matrices restricted to 2g.  Restriction to the Ad(G)-stable
    lattice 2g is a homomorphism of the action, so they are exact as in
    ``coadjoint_orbits``.
    """
    group = table.partition.group
    ring = group.ring
    _require_p2_uniform(ring)
    sub = Subring(ring, [ring.scale(ring.basis(i), 2)
                         for i in range(ring.rank)], label="2g")
    kspace = DualSpace(sub.induced)
    perms = []
    for i, B in enumerate(conjugation_certificate(group).matrices):
        g = ring.basis(i)
        perms.append(_dual_permutation(
            kspace, _restricted_action(ring, sub, B.T, g), g,
            "(2g)* character lattice"))
    _, orbit_sets = permutation_orbits(len(kspace), perms)

    idx_g2 = sub.ambient_indices()
    chi_g2 = table.rows[:, table.partition.labels[idx_g2]]

    cells = []
    assigned = np.full(len(table.rows), -1, dtype=np.int64)
    for idx in orbit_sets:
        orbit = CoadjointOrbit(kspace, idx)
        ehat = inverse_fourier(orbit.indicator()).values
        scores = np.abs(chi_g2 @ np.conj(ehat)) / len(kspace)
        members = np.nonzero(scores > tol)[0]
        # normalize both vectors at the same entry (e_Omega's peak), else
        # float noise can move argmax and flip the comparison by a unit
        v_peak = int(np.argmax(np.abs(ehat)))
        vhat = ehat / ehat[v_peak]
        for rho in members:
            if assigned[rho] >= 0:
                raise PartitionFailure(
                    f"irreducible {int(rho)} lies in two cells "
                    f"({int(assigned[rho])} and {len(cells)})")
            assigned[rho] = len(cells)
            u = chi_g2[rho]
            if abs(u[v_peak]) <= tol:
                raise PartitionFailure(
                    f"chi_{int(rho)} vanishes where e_Omega peaks")
            dev = float(np.max(np.abs(u / u[v_peak] - vhat)))
            if dev > tol:
                raise PartitionFailure(
                    f"chi_{int(rho)} restricted to G^2 is not proportional "
                    f"to e_Omega: normalized deviation {dev:.2e}")
        cells.append(P2Cell(orbit, members))
    missing = np.nonzero(assigned < 0)[0]
    if missing.size:
        raise PartitionFailure(
            f"irreducibles {missing.tolist()} lie in no cell")
    return sub, cells


def p2_convolution_check(group: LazardGroup) -> dict:
    """exp* intertwining on G^2-supported invariant functions, p = 2.

    Both factors supported on G^2 must always intertwine; one-factor
    support suffices when [g,g] lies in 8g (uniform depth >= 3).  Each claim
    is checked exactly at every size, by comparing the integer counts
    N_a[b, c] of both laws for the classes a, b it covers, read at the
    class representatives (``_count_mismatch`` with the rows b).  A claim
    that fails raises UnexpectedFailure.  Returns ``part_b`` ("exact"),
    ``part_a`` ("exact", or "skipped" below uniform depth 3) and
    ``expected_failure``: the first (a, b, c) of a conjugation-invariant
    pair outside those hypotheses that breaks the identity, or None.
    """
    ring = group.ring
    _require_p2_uniform(ring)
    part = conjugacy_classes(group)
    r = len(part)
    even = np.all(group.elements % 2 == 0, axis=1) if ring.rank \
        else np.ones(len(group), dtype=bool)
    inside = [a for a in range(r) if bool(even[part.classes[a]].all())]
    outside = [a for a in range(r) if a not in set(inside)]
    one_sided = ring.uniform_depth >= 3

    for a in inside:
        hit = _count_mismatch(part, a, inside)
        if hit is not None:
            raise UnexpectedFailure(
                f"G^2-supported pair breaks exp* at (classes, element) "
                f"= {hit}")
    if one_sided:
        checks = [(a, None) for a in inside] + [(a, inside) for a in outside]
        for a, rows in checks:
            hit = _count_mismatch(part, a, rows)
            if hit is not None:
                raise UnexpectedFailure(
                    f"one-sided G^2 pair breaks exp* at {hit}")
    search = outside if one_sided else None
    expected = None
    for a in outside:
        expected = _count_mismatch(part, a, search)
        if expected is not None:
            break
    return {"part_b": "exact", "part_a": "exact" if one_sided else "skipped",
            "expected_failure": expected}
