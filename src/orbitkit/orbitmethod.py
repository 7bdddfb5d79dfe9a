"""Coadjoint orbits, orbit characters, and the verification suites.

Each function takes the group G = exp(g) (the p = 2 cells its oracle
table, which holds G) and reads G's one certificate; none builds a group.

The coadjoint action is carried out exactly on exponent vectors: f ->
f o Ad(s) sends the exponents a of f to a D, D the transposed matrix of
Ad(s) rescaled by the moduli, integral as Ad(s) is an automorphism of g,
and the grid's one linear builder (``Grid.linear_perm``, shared with the
conjugation certificate) makes D a permutation of g*.  The matrices are
those of the group's conjugation certificate
(``oracle.conjugation_certificate``), the one class partition per group
that the class-algebra checks below read too.  It proves that the basis
exponentials s = e^{e_i} generate G and act by exp(ad e_i), so the orbits
under their dual maps are exactly the coadjoint orbits in g*; no orbit is
audited by sampling.  One integer index map restricts characters to a
subring (``restriction_indices``): the (2g)* orbits are its images of the
g* orbits, and padic's restriction harness reads containment through it.

The orbit character chi(e^x) = |Omega|^{-1/2} sum_{f in Omega} f(x) is the
inverse Fourier transform of the orbit's indicator, one library FFT per
block of orbits on the ring's grid, checked constant on every conjugacy
class; orbit membership stays exact, the values carry the FFT's round-off.
The convolution-identity
suites reduce exhaustive claims about conjugation-invariant functions to
class-indicator pairs (bilinearity) and compare the integer counts
N_a[b, c] = #{h in C_a : h^{-1} x_c in C_b} under both laws, so those
checks are exact at every group order.  The certified generators act
additively, so the additive counts are constant on classes as the group
counts are, and both laws are counted at the class representatives only,
as sorted keys (``oracle.class_keys``, a run of classes per translation
call).  The idempotent suite checks that each
orbit idempotent is constant on the oracle's classes and Hermitian, and
multiplies the idempotents in the class algebra, again through Burnside's
class matrices: class functions commute and Hermitian ones have Hermitian
products, so one class of each inverse pair and the pairs j <= i give
every product.  Every suite runs at any group order without an n x n
table.

``kirillov_character`` returns the characters' values on G.  The exact
suites (exp* here and the p = 2 counts, like ``liering``'s twist check)
raise their failure with its witness and return only what a pass leaves to
report; the idempotent suite returns its measured deviations, with
``passed`` and the witness, since a near-miss is read off those.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (PartitionFailure, PropertyFailed, RegimeViolation,
                     UnexpectedFailure)
from .harmonic import (_BLOCK_CELLS, ADDITIVE, GROUP, ClassFunction,
                       DualFunction, DualSpace, exp_star, fourier,
                       inverse_fourier)
from .liering import LazardGroup, Subring, min_uniform_depth
from .oracle import (class_keys, class_matrices, conjugacy_classes,
                     conjugation_certificate, permutation_orbits)

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

    def __repr__(self):
        first = tuple(self.space.exponents[self.indices[0]].tolist())
        return f"CoadjointOrbit(size={self.size}, rep={first})"


def indicators(orbits) -> DualFunction:
    """The indicators of ``orbits`` (in one DualSpace), one row each."""
    space = orbits[0].space
    vals = np.zeros((len(orbits), len(space)), dtype=np.complex128)
    for row, orbit in zip(vals, orbits):
        row[orbit.indices] = 1.0
    return DualFunction(space.ring, vals)


def _orbit_blocks(orbits, n):
    """(start, block) of runs of ``orbits`` whose functions on n elements
    fill ``_BLOCK_CELLS`` words (two per value), one orbit at least."""
    step = max(1, _BLOCK_CELLS // 2 // n)
    for lo in range(0, len(orbits), step):
        yield lo, orbits[lo:lo + step]


def _coadjoint_perms(group: LazardGroup, space: DualSpace) -> list:
    """Index permutations of g* (``space``) under f -> f o Ad(s), one per
    generator s = e^{e_i} of the group's conjugation certificate.

    With B = B_s, f o Ad(s) has the exponents a D, D[i, j] = B[j, i]
    p^(k_j - k_i), canonical mod p^(k_j) when integral; else the character
    e_i leaves the lattice and PropertyFailed says so.  The action is
    linear, so that check on D covers every character.
    """
    ring = group.ring
    perms = []
    for i, B in enumerate(conjugation_certificate(group).matrices):
        moved = B.T * space.scale[:, None]
        if np.any(moved % space.scale):
            raise PropertyFailed(
                f"Ad*(e^{ring.basis(i)}) left the character lattice")
        perms.append(ring.grid.linear_perm(moved // space.scale))
    return perms


def restriction_indices(space: DualSpace, basis, target) -> np.ndarray:
    """Index in DualSpace(``target``) of each character of ``space``
    restricted to the span of the rows b_j of ``basis``, whose orders
    p^(k'_j) are ``target``'s moduli (a subring's basis and induced ring).

    The character with weights w takes exp(2 pi i (w . b_j) / p^K) at b_j,
    and w . b_j mod p^K is a multiple of p^(K - k'_j) whose quotient is the
    exponent j.  Restriction is onto and commutes with every automorphism
    that preserves the span.  No int64 overflow: w_i < p^K and
    b_ji < p^(k_i), so w . b_j < p^K sum_i p^(k_i) <= n^2, n the order of
    the space's ring; each caller holds the character table of a group of
    order at least n, so n <= ``oracle.ORDER_CAP`` = 10^5.
    """
    ring = space.ring
    basis = np.asarray(basis, dtype=np.int64).reshape(len(basis), ring.rank)
    shift = np.array([ring.big // s for s in target.sizes], dtype=np.int64)
    exponents = (space.weights @ basis.T) % ring.big // shift
    return exponents @ target.grid.strides


def coadjoint_orbits(group: LazardGroup) -> list[CoadjointOrbit]:
    """Partition of g* into coadjoint orbits, ordered by smallest member.

    g* is closed under the duals f -> f o Ad(s) of the certified matrices
    of ``group``'s conjugation certificate (``_coadjoint_perms``); the
    module docstring says why these orbits are exact.
    """
    space = DualSpace(group.ring)
    _, orbit_sets = permutation_orbits(len(space),
                                       _coadjoint_perms(group, space))
    return [CoadjointOrbit(space, idx) for idx in orbit_sets]


def _class_spread(rows, part):
    """|f(x) - f(z_[x])| for each row f and x, z_[x] the representative of
    the class of x."""
    spread = rows[:, part.reps][:, part.labels]
    np.subtract(rows, spread, out=spread)
    return np.abs(spread)


def kirillov_character(group: LazardGroup, orbits) -> list[ClassFunction]:
    """The orbit characters chi_Omega of ``orbits`` on G, in their order,
    via the identity coordinate map exp, as their values on G.

    Each orbit size must be a perfect square (its root is the degree), and
    each character must be constant on every conjugacy class, exactly as
    the group's conjugation certificate closes them (the classes behind
    ``coadjoint_orbits``, with no order cap): max_x |chi(x) - chi(z_[x])|
    <= ``CONSTANCY_TOL``, z_[x] the representative of the class of x, else
    PropertyFailed names the deviation and the first grid index where it
    is largest; the first failing orbit raises.  One inverse FFT and one
    check serve each ``_orbit_blocks`` block, bit for bit as one orbit at a
    time.
    """
    part = conjugation_certificate(group)
    roots = [math.isqrt(orbit.size) for orbit in orbits]
    square = next((i for i, (orbit, root) in enumerate(zip(orbits, roots))
                   if root * root != orbit.size), len(orbits))
    chars = []
    for lo, block in _orbit_blocks(orbits[:square], len(group)):
        vals = inverse_fourier(indicators(block)).values
        vals /= np.array(roots[lo:lo + len(block)])[:, None]
        spread = _class_spread(vals, part)
        x = spread.argmax(axis=1)
        top = spread[np.arange(len(block)), x]
        varies = np.flatnonzero(top > CONSTANCY_TOL)
        if varies.size:
            t = varies[0]
            raise PropertyFailed(
                f"orbit character varies on a conjugacy class: deviation "
                f"{top[t]:.2e} at grid index {x[t]}")
        chars += [ClassFunction(group, row) for row in vals]
    if square < len(orbits):
        raise PropertyFailed(
            f"orbit size {orbits[square].size} is not a perfect square")
    return chars


# -- class-indicator counts ------------------------------------------------------

def _count_mismatch(part, a, by_group, by_sum, rows=None):
    """First (a, b, c), b in ``rows`` (every class when None) and c in G in
    row-major order, where N_a[b, c] = #{h in C_a : h^{-1} x_c in C_b}
    differs between the group and the additive law; None when they agree.
    ``by_group`` and ``by_sum`` are the class matrices of a under the two
    laws.

    Convolving the indicators of C_a and C_b gives N_a[b, .]/|G| under each
    law, so agreement for every a is the exact all-pairs intertwining test.
    The two laws are compared as r x r count matrices at the class
    representatives, ``class_matrices`` under each law, and that suffices:

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
    bad = by_group[keep] != by_sum[keep]
    if not bad.any():
        return None
    b, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return (a, int(b if rows is None else rows[b]), part.reps[c])


def _first_mismatch(part, classes, rows=None):
    """The first ``_count_mismatch`` over ``classes`` in their order, with
    the rows b in ``rows``; None when every class agrees.

    Both laws' ``class_keys`` are compared a run of classes at a time.
    Where the sorted keys first differ, the smaller key (or the only one)
    is one of the run's first class whose matrices differ: earlier classes
    have equal keys, and later classes' keys are larger.  Only that class's
    two matrices are built, for the witness.
    """
    r = len(part)
    laws = zip(class_keys(part, classes, GROUP, rows),
               class_keys(part, classes, ADDITIVE, rows))
    for (block, by_group), (_, by_sum) in laws:
        if np.array_equal(by_group, by_sum):
            continue
        m = min(len(by_group), len(by_sum))
        at = int(np.argmax(np.append(by_group[:m] != by_sum[:m], True)))
        key = min(int(keys[at]) for keys in (by_group, by_sum)
                  if at < len(keys))
        a = block[key // (r * r)]
        (_, M), = class_matrices(part, [a])
        (_, N), = class_matrices(part, [a], ADDITIVE)
        return _count_mismatch(part, a, M, N, rows)
    return None


# -- verification suites --------------------------------------------------------

# (c, b, i) cells per block of the class-algebra products: a block of
# classes c, each with r x k products, keeps its temporaries a few MB
_CLASS_CELLS = 1 << 18


def _class_algebra_deviations(part, at_reps):
    """Idempotent and orthogonality deviations of Hermitian class functions,
    worked out in the class algebra.

    ``at_reps`` holds the values e_i(z_a) of k class functions at the class
    representatives z_a, one row each, Hermitian exactly: e_i(z_a*) =
    conj e_i(z_a), a* the class of the inverses of C_a (``part.inverse``).
    Their group convolutions there are

      (e_i * e_j)(z_c) = (1/|G|) sum_a e_i(z_a) sum_b e_j(z_b) M_a[b, c]

    with M_a Burnside's class matrix, and each is compared with
    delta_ij e_i(z_c).  The triples x y = z in C_a x C_b x C_c, counted once
    by (x, y) and once by (z, y^-1), give |C_c| M_a[b, c] = |C_a| M_c[b*, a].
    So the class matrix of c alone gives every product at z_c:

      (e_i * e_j)(z_c) = (1/(|G| |C_c|)) sum_{b,a} e_j(z_b*) M_c[b, a]
                         |C_a| e_i(z_a).

    Half the cells, twice.  Class functions commute under convolution, so
    e_i * e_j = e_j * e_i; the inputs are Hermitian, so is their product,
    and (e_i * e_j)(z_c*) = conj (e_i * e_j)(z_c).  Every cell (c, j, i)
    therefore has the deviation of a cell with c <= c* and j <= i, which
    comes earlier in (c, j, i) order, and only those cells are computed.

    The classes c <= c* go in blocks of s, about ``_CLASS_CELLS`` / (r k).
    A block is one real product of its stacked class matrices with the real
    and imaginary parts of |C_a| e_i(z_a), then, strip by strip of w
    consecutive i, two real products of the rows j < (the strip's end) of
    [Re e_j(z_b*) | -Im e_j(z_b*)] and [Im e_j(z_b*) | Re e_j(z_b*)] with
    the strip's columns, so the r^4 work runs as real BLAS and no
    r x r x r array exists.  w is sqrt(4 ``_CLASS_CELLS`` / (s r)), about
    2 sqrt(k), rounded up to a multiple of 8, and the last strip takes the
    rest.  A multiple of 8 keeps a strip's columns in the 8-wide tiles of
    the whole block's product (OpenBLAS's double kernels), and at the
    default ``_CLASS_CELLS`` a strip's first square is large enough to be
    summed over b as that product sums it, so each computed cell carries
    the round-off of the unstripped product (``TestClassAlgebraKernel``
    compares them bit for bit).

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
    classes = [c for c in range(r) if c <= part.inverse[c]]
    step = max(1, _CLASS_CELLS // (r * k))
    dev_idem = dev_orth = 0.0
    witness = None
    found = class_matrices(part, classes)
    # the class matrices of a block, written in place as float64 (exact:
    # every count is at most |G| < 2^53)
    matrices = np.empty((min(step, len(classes)) * r, r))
    for lo in range(0, len(classes), step):
        cs = classes[lo:lo + step]
        stacked = matrices[:len(cs) * r]
        for t, (_, M) in enumerate(itertools.islice(found, len(cs))):
            stacked[t * r:(t + 1) * r] = M
        idem, top, key = _block_deviations(
            stacked, right, fold_re, fold_im, at_reps[:, cs],
            1.0 / (n * part.sizes[cs]))
        dev_idem = max(dev_idem, idem)
        # the first class c holding the block's maximum, at its first (j, i)
        t = int(np.argmax(top))
        if top[t] > dev_orth:
            dev_orth = float(top[t])
            j, i = divmod(int(key[t]), k)
            witness = (i, j, part.reps[cs[t]])
    return dev_idem, dev_orth, witness


def _block_deviations(stacked, right, fold_re, fold_im, targets, scale):
    """One block of ``_class_algebra_deviations``, strip by strip: the
    largest idempotent deviation, and for each class the largest
    off-diagonal deviation over the cells j <= i, with its first cell in
    (j, i) order as j k + i.

    ``stacked`` holds the block's s class matrices M_c; for its t-th class
    c, ``targets[:, t]`` holds the e_i(z_c) and ``scale[t]`` is
    1 / (|G| |C_c|).  Every temporary is freed on return, before the next
    block's products are built.
    """
    k, s = targets.shape
    r = len(right)
    # inner[t, b, 0 | 1, i] = sum_a M_c[b, a] |C_a| e_i(z_a), real and
    # imaginary part
    inner = (stacked @ right).reshape(s, r, 2, k)
    scale = scale[None, :, None]
    width = 8 * max(1, -(-math.isqrt(4 * _CLASS_CELLS // (s * r)) // 8))
    # the last strip takes the rest, so no strip is narrower than w
    starts = list(range(0, max(k - width, 0) + 1, width))
    dev_idem = 0.0
    tops, keys = [], []
    for i0, i1 in zip(starts, starts[1:] + [k]):
        w = i1 - i0
        strip = inner[..., i0:i1].transpose(2, 1, 0, 3).reshape(2 * r, s * w)
        # conv[j, t, i - i0] = (e_i * e_j)(z_c) - delta_ij e_i(z_c)
        conv_re = (fold_re[:i1] @ strip).reshape(i1, s, w)
        conv_re *= scale
        conv_im = (fold_im[:i1] @ strip).reshape(i1, s, w)
        conv_im *= scale
        d = np.arange(w)
        conv_re[i0 + d, :, d] -= targets[i0:i1].real
        conv_im[i0 + d, :, d] -= targets[i0:i1].imag
        dev = np.hypot(conv_re, conv_im, out=conv_re)
        del conv_im
        dev_idem = max(dev_idem, float(dev[i0 + d, :, d].max()))
        # the diagonal, and the cells j > i that mirror computed ones
        jj, ii = np.tril_indices(w)
        dev[i0 + jj, :, ii] = 0.0
        # each class's first largest cell in (j, i) order
        flat = dev.transpose(1, 0, 2).reshape(s, i1 * w)
        at = np.argmax(flat, axis=1)
        tops.append(flat[np.arange(s), at])
        keys.append(at // w * k + i0 + at % w)
    tops, keys = np.array(tops), np.array(keys)
    top = tops.max(axis=0)
    return dev_idem, top, np.where(tops == top, keys, k * k).min(axis=0)


def verify_idempotents(group: LazardGroup, *, tol=1e-8) -> dict:
    """(a)-(d) idempotent package for e_Omega = |Omega|^{1/2} chi_Omega.

    (a) the Fourier transform of e_Omega pulled back to g is the indicator
    of Omega; (b) e_Omega is idempotent under group convolution; (c)
    distinct idempotents annihilate; (d) they sum to |G| delta_identity.
    The classes and orbits come exactly from the group's conjugation
    certificate.

    (b) and (c) run in the class algebra, at every group order.  First each
    e_i must be constant on the oracle's conjugacy classes and Hermitian.
    The constancy deviation is d = max_{i,x} |e_i(x) - e_i(z_[x])|, z_[x]
    the representative of the class of x.  The class function e~_i takes
    the value e~_i(z_a) = (e_i(z_a) + conj e_i(z_a*)) / 2 on C_a, a* the
    class of the inverses of C_a; it is Hermitian exactly in floating
    point, since the sum commutes and conj and the halving are exact.  The
    Hermitian deviation is h = max_{i,a} |e_i(z_a) - e~_i(z_a)|, and
    d + h must be within ``tol``, else the report fails with the witness
    (i, x) when d >= h and (i, grid index of z_a) otherwise.  The e~_i
    convolve exactly as class functions do, so (e~_i * e~_j) is read off
    Burnside's class matrices at the representatives
    (``_class_algebra_deviations``, which computes one class of each
    inverse pair and the pairs j <= i), and the witness of a failure is
    (i, j, grid index of z_c).  That is the old all-of-G check up to
    d + h: with e_i = e~_i + D_i, |D_i| <= d + h and |(f * g)(x)| <=
    ||f||_2 ||g||_2 (mass-1 Haar norms), at every x in G
      |(e_i * e_j - delta_ij e_i)(x)|
        <= max_c |(e~_i * e~_j - delta_ij e~_i)(z_c)|
           + (d + h) (1 + d + h + ||e_i||_2 + ||e_j||_2),
    and the same with the two sides swapped; ||e_Omega||_2 = |Omega|^{1/2}.
    The orbits run in ``_orbit_blocks``: no n x n or k x n array is formed.
    Each witness is the first largest in (i, x) order, and (d) adds the
    idempotents in orbit order, as one orbit at a time did.
    """
    if group.ring.p < 3:
        raise RegimeViolation(f"p = {group.ring.p} < 3")
    n = len(group)
    part = conjugacy_classes(group)
    orbits = coadjoint_orbits(group)
    at_reps = np.empty((len(orbits), len(part)), dtype=np.complex128)
    total = np.zeros(n, dtype=np.complex128)
    dev_fourier, dev_const, const_witness = 0.0, 0.0, None
    dev_herm, herm_witness = 0.0, None
    for lo, block in _orbit_blocks(orbits, n):
        rows = np.array([c.values for c in kirillov_character(group, block)])
        rows *= np.array([math.isqrt(o.size) for o in block])[:, None]
        F = fourier(exp_star(ClassFunction(group, rows))).values
        for t, orbit in enumerate(block):
            F[t, orbit.indices] -= 1.0
        dev_fourier = max(dev_fourier, float(np.max(np.abs(F))))
        del F
        spread = _class_spread(rows, part)
        t, x = map(int, np.unravel_index(np.argmax(spread), spread.shape))
        if spread[t, x] > dev_const:
            dev_const, const_witness = float(spread[t, x]), (lo + t, x)
        values = rows[:, part.reps]
        at = at_reps[lo:lo + len(block)]
        at[...] = (values + values[:, part.inverse].conj()) / 2
        spread = np.abs(values - at)
        t, a = map(int, np.unravel_index(np.argmax(spread), spread.shape))
        if spread[t, a] > dev_herm:
            dev_herm, herm_witness = float(spread[t, a]), (lo + t,
                                                          part.reps[a])
        for row in rows:
            total += row
        # free the block's arrays (row is a view) before the next block
        # and the class algebra
        del rows, row, spread

    dev_idem, dev_orth, witness = _class_algebra_deviations(part, at_reps)

    # the identity is grid index 0
    identity_target = np.zeros(n)
    identity_target[0] = n
    dev_complete = float(np.max(np.abs(total - identity_target)))

    if dev_const + dev_herm > tol:
        passed = False
        witness = const_witness if dev_const >= dev_herm else herm_witness
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
    why that covers every element), as sorted keys (``_first_mismatch``).
    No pair of functions is drawn or convolved: every invariant pair
    follows from the exact counts.  The first mismatch raises
    PropertyFailed with its (a, b, c) as the witness.
    """
    if group.ring.p < 3:
        raise RegimeViolation(f"p = {group.ring.p} < 3")
    part = conjugacy_classes(group)
    hit = _first_mismatch(part, range(len(part)))
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

    The orbits in (2g)* are the images of the coadjoint orbits in g* under
    restriction (``restriction_indices``), which is onto and commutes with
    the action, as Ad(G) preserves 2g: each permutation of g* pushes down
    through any table of preimages, and their orbits are exact.
    """
    group = table.partition.group
    ring = group.ring
    _require_p2_uniform(ring)
    sub = Subring(ring, [ring.scale(ring.basis(i), 2)
                         for i in range(ring.rank)], label="2g")
    space, kspace = DualSpace(ring), DualSpace(sub.induced)
    image = restriction_indices(space, sub.basis_coords, sub.induced)
    pre = np.empty(len(kspace), dtype=np.int64)
    pre[image] = np.arange(len(space))
    _, orbit_sets = permutation_orbits(
        len(kspace),
        [image[perm[pre]] for perm in _coadjoint_perms(group, space)])

    idx_g2 = sub.ambient_indices()
    chi_g2 = table.rows[:, table.partition.labels[idx_g2]]

    cells = []
    assigned = np.full(len(table.rows), -1, dtype=np.int64)
    orbits = [CoadjointOrbit(kspace, idx) for idx in orbit_sets]
    ehats = itertools.chain.from_iterable(
        inverse_fourier(indicators(block)).values
        for _, block in _orbit_blocks(orbits, len(kspace)))
    for orbit, ehat in zip(orbits, ehats):
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
    even = np.all(group.elements % 2 == 0, axis=1)
    in_g2 = [bool(even[c].all()) for c in part.classes]
    inside = [a for a in range(r) if in_g2[a]]
    outside = [a for a in range(r) if not in_g2[a]]
    one_sided = ring.uniform_depth >= 3

    hit = _first_mismatch(part, inside, inside)
    if hit is not None:
        raise UnexpectedFailure(
            f"G^2-supported pair breaks exp* at (classes, element) = {hit}")
    if one_sided:
        hit = _first_mismatch(part, inside)
        if hit is None:
            hit = _first_mismatch(part, outside, inside)
        if hit is not None:
            raise UnexpectedFailure(
                f"one-sided G^2 pair breaks exp* at {hit}")
    expected = _first_mismatch(part, outside,
                               outside if one_sided else None)
    return {"part_b": "exact", "part_a": "exact" if one_sided else "skipped",
            "expected_failure": expected}
