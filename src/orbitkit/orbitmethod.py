"""Coadjoint orbits, orbit characters, and the verification suites.

Each function takes the group G = exp(g) (the p = 2 cells its oracle
table, which holds G) and reads G's one certificate; none builds a group.

g* is the ring's grid, paired with g through ``pairing_scale``.
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
block of orbits on the ring's grid, read at the class representatives of
orbits checked closed under the certificate's dual maps; orbit membership
stays exact, the values carry the FFT's round-off.  The convolution-identity
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

``kirillov_character`` returns values at the class representatives.  The
exact suites (exp* here and the p = 2 counts, like ``liering``'s twist
check) raise their failure with its witness and return only what a pass
leaves to report; the idempotent suite returns its measured deviations,
with ``passed`` and the witness, since a near-miss is read off those.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (PartitionFailure, PropertyFailed, RegimeViolation,
                     UnexpectedFailure)
from .harmonic import (_BLOCK_CELLS, ADDITIVE, GROUP, ClassFunction,
                       DualFunction, exp_star, fourier, inverse_fourier)
from .liering import FiniteLieRing, LazardGroup, Subring, min_uniform_depth
from .oracle import (class_keys, class_matrices, conjugacy_classes,
                     conjugation_certificate, permutation_orbits)

# The order limit of the n x n idempotent table that verify_idempotents
# no longer builds.  Nothing in src/ reads it; perfbench's tests import it,
# and it goes with the next benchmark change (ROADMAP item 1).
_TABLE_LIMIT = 2048


class CoadjointOrbit:
    """A G-orbit in g*, held as sorted indices into its ring's grid.

    The orbit's characters are ``ring.grid.elements[indices]``; the first
    is its smallest member, which the repr prints.  The orbit enters the
    character formula through its indicator function on g*.
    """

    __slots__ = ("ring", "indices")

    def __init__(self, ring: FiniteLieRing, indices):
        self.ring = ring
        self.indices = np.asarray(indices, dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self.indices)

    def __repr__(self):
        first = tuple(self.ring.grid.elements[self.indices[0]].tolist())
        return f"CoadjointOrbit(size={self.size}, rep={first})"


def indicators(orbits) -> DualFunction:
    """The indicators of ``orbits`` (in one ring's dual), one row each."""
    ring = orbits[0].ring
    vals = np.zeros((len(orbits), ring.order()), dtype=np.complex128)
    for row, orbit in zip(vals, orbits):
        row[orbit.indices] = 1.0
    return DualFunction(ring, vals)


def _orbit_blocks(orbits, n):
    """(start, block) of runs of ``orbits`` whose functions on n elements
    fill ``_BLOCK_CELLS`` words (two per value), one orbit at least."""
    step = max(1, _BLOCK_CELLS // 2 // n)
    for lo in range(0, len(orbits), step):
        yield lo, orbits[lo:lo + step]


def _coadjoint_perms(group: LazardGroup) -> list:
    """Index permutations of g* under f -> f o Ad(s), one per generator
    s = e^{e_i} of the group's conjugation certificate.

    With B = B_s, f o Ad(s) has the exponents a D, D[i, j] = B[j, i]
    p^(k_j - k_i), canonical mod p^(k_j) when integral; else the character
    e_i leaves the lattice and PropertyFailed says so.  The action is
    linear, so that check on D covers every character.
    """
    ring = group.ring
    scale = pairing_scale(ring)
    perms = []
    for i, B in enumerate(conjugation_certificate(group).matrices):
        moved = B.T * scale[:, None]
        if np.any(moved % scale):
            raise PropertyFailed(
                f"Ad*(e^{ring.basis(i)}) left the character lattice")
        perms.append(ring.grid.linear_perm(moved // scale))
    return perms


def pairing_scale(ring: FiniteLieRing) -> np.ndarray:
    """p^(K - k_i) per coordinate, K the largest modulus exponent: the
    character with exponents a takes exp(2 pi i (a * scale) . x / p^K)."""
    return np.array([ring.big // s for s in ring.sizes], dtype=np.int64)


def restriction_indices(ring: FiniteLieRing, basis, target) -> np.ndarray:
    """Index in the dual of ``target`` of each character of ``ring``
    restricted to the span of the rows b_j of ``basis``, whose orders
    p^(k'_j) are ``target``'s moduli (a subring's basis and induced ring).

    The phase w . b_j of the character with weights w = a * scale
    (``pairing_scale``) is a multiple of p^(K - k'_j) mod p^K whose
    quotient is the exponent j.  Restriction is onto and commutes with
    every automorphism that preserves the span.  No int64 overflow: w_i <
    p^K and b_ji < p^(k_i), so w . b_j < p^K sum_i p^(k_i) <= n^2, n the
    order of ``ring``; each caller holds the character table of a group of
    order at least n, so n <= ``oracle.ORDER_CAP`` = 10^5.
    """
    basis = np.asarray(basis, dtype=np.int64).reshape(len(basis), ring.rank)
    shift = np.array([ring.big // s for s in target.sizes], dtype=np.int64)
    phases = ring.grid.elements @ (basis * pairing_scale(ring)).T
    exponents = phases % ring.big // shift
    return exponents @ target.grid.strides


def coadjoint_orbits(group: LazardGroup) -> list[CoadjointOrbit]:
    """Partition of g* into coadjoint orbits, ordered by smallest member.

    g* is closed under the duals f -> f o Ad(s) of the certified matrices
    of ``group``'s conjugation certificate (``_coadjoint_perms``); the
    module docstring says why these orbits are exact.
    """
    ring = group.ring
    _, orbit_sets = permutation_orbits(ring.order(), _coadjoint_perms(group))
    return [CoadjointOrbit(ring, idx) for idx in orbit_sets]


def _block_characters(group: LazardGroup, orbits):
    """(start, block, chi_Omega on G per orbit) per ``_orbit_blocks`` block
    of ``orbits``: one inverse FFT of the indicators, divided by the
    degrees, bit for bit as one orbit at a time.  Each orbit must be of
    square size and closed under the duals of the certified generators
    (``_coadjoint_perms``), checked one at a time, overlapping or not; the
    first that fails raises PropertyFailed, a closure failure naming the
    orbit's position and its first member that a generator moves out."""
    perms = _coadjoint_perms(group)
    inside = np.zeros(len(group), dtype=bool)
    for lo, block in _orbit_blocks(orbits, len(group)):
        roots = [math.isqrt(orbit.size) for orbit in block]
        for t, (orbit, root) in enumerate(zip(block, roots), lo):
            if root * root != orbit.size:
                raise PropertyFailed(
                    f"orbit size {orbit.size} is not a perfect square")
            inside[orbit.indices] = True
            leaves = np.logical_or.reduce(
                [~inside[perm[orbit.indices]] for perm in perms])
            inside[orbit.indices] = False
            if np.any(leaves):
                raise PropertyFailed(
                    f"orbit {t} is not closed under the coadjoint action: "
                    f"grid index {orbit.indices[leaves.argmax()]} leaves it")
        vals = inverse_fourier(indicators(block)).values
        vals /= np.array(roots)[:, None]
        yield lo, block, vals


def kirillov_character(group: LazardGroup, orbits) -> np.ndarray:
    """chi_Omega for each of ``orbits`` via the identity coordinate map
    exp, at the class representatives of the group's certificate, one row
    each: the full-grid values of ``_block_characters`` read there."""
    reps = conjugation_certificate(group).reps
    chars = np.empty((len(orbits), len(reps)), dtype=np.complex128)
    for lo, block, vals in _block_characters(group, orbits):
        chars[lo:lo + len(block)] = vals[:, reps]
    return chars


# -- class-indicator counts ------------------------------------------------------

def _first_mismatch(part, classes, rows=None):
    """First (a, b, c), a in ``classes`` in their order, b in ``rows``
    (every class when None; callers pass it increasing) and c in G in
    row-major order, where N_a[b, c] = #{h in C_a : h^{-1} x_c in C_b}
    differs between the group and the additive law; None when they agree.

    Convolving the indicators of C_a and C_b gives N_a[b, .]/|G| under each
    law, so agreement for every a is the exact all-pairs intertwining test.
    Comparing the counts at the class representatives suffices:

    * The group counts are constant on classes: conjugation by g permutes
      C_a and C_b and maps h^{-1} x_c to (g h g^-1)^{-1} (g x_c g^-1).
    * So are the additive counts N+_a.  Each generator s of the group's
      conjugation certificate acts as x -> x B_s, a map that is additive
      and permutes C_a and C_b, so x_c B_s - x_h B_s = (x_c - x_h) B_s
      gives N+_a[b, c B_s] = N+_a[b, c].  The generators generate G, so
      N+_a is constant on every class.
    * So row b of the element-level difference is constant on classes, and
      its first nonzero element is the representative z_c, the smallest
      member, of the first class c where it is nonzero.

    Both laws' ``class_keys`` are compared a run of classes at a time.  Key
    (t r + b) r + c occurs N_a[b, z_c] times, a the run's t-th class.
    Where the sorted keys first differ, the smaller key (the only one, if
    one law's keys ran out) is the smallest whose counts differ, as every
    smaller key occurs equally often under both laws.  It decodes to the
    witness (a, b, z_c): keys order by (t, b, c), and ``rows`` increases.
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
        t, b, c = key // (r * r), key // r % r, key % r
        return (block[t], b, part.reps[c])
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
    for lo, block, rows in _block_characters(group, orbits):
        rows *= np.array([math.isqrt(o.size) for o in block])[:, None]
        F = fourier(exp_star(ClassFunction(group, rows))).values
        for t, orbit in enumerate(block):
            F[t, orbit.indices] -= 1.0
        dev_fourier = max(dev_fourier, float(np.max(np.abs(F))))
        del F
        # the constancy deviation d and the Hermitian deviation h
        values = rows[:, part.reps]
        spread = np.abs(rows - values[:, part.labels])
        t, x = map(int, np.unravel_index(np.argmax(spread), spread.shape))
        if spread[t, x] > dev_const:
            dev_const, const_witness = float(spread[t, x]), (lo + t, x)
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
    element, read at the class representatives as sorted keys
    (``_first_mismatch`` says why that covers every element).
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
    image = restriction_indices(ring, sub.basis_coords, sub.induced)
    m = sub.induced.order()
    pre = np.empty(m, dtype=np.int64)
    pre[image] = np.arange(len(image))
    _, orbit_sets = permutation_orbits(
        m, [image[perm[pre]] for perm in _coadjoint_perms(group)])

    idx_g2 = sub.ambient_indices()
    chi_g2 = table.rows[:, table.partition.labels[idx_g2]]

    cells = []
    assigned = np.full(len(table.rows), -1, dtype=np.int64)
    orbits = [CoadjointOrbit(sub.induced, idx) for idx in orbit_sets]
    ehats = itertools.chain.from_iterable(
        inverse_fourier(indicators(block)).values
        for _, block in _orbit_blocks(orbits, m))
    for orbit, ehat in zip(orbits, ehats):
        scores = np.abs(chi_g2 @ np.conj(ehat)) / m
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
    class representatives (``_first_mismatch`` with the rows b).  A claim
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
