"""Pontryagin duality and harmonic analysis on a finite Lie ring.

The additive group of g = prod_i Z/p^{k_i} is self-dual: a character is an
exponent vector a with a_i in Z/p^{k_i}, pairing with x in g as
zeta^{sum_i a_i x_i p^{K-k_i}} where K = max k_i and zeta = exp(2 pi i/p^K).
A DualCharacter's pairing exponents are computed exactly in Z/p^K; complex
values appear only at the boundary (values, transforms, inner products) in
double precision, where desk-scale group orders keep rounding far below
tolerance.

Haar measure is normalized to total mass 1 on every domain.  Two
convolutions share that normalization: the additive law on g replaces
h^{-1} gamma with gamma - h, the group law on exp(g) with CH composition.
``translates`` computes h^{-1} gamma under either law, for ``convolve`` and
for the class counts of the oracle and the verification suites.
g* is the same mixed-radix grid as g (C order on shape ``ring.sizes``), so
the transforms are library FFTs, ``numpy.fft.fftn``/``ifftn`` on that shape.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainMismatch
from .liering import FiniteLieRing, LazardGroup

ADDITIVE = "additive"
GROUP = "group"

DEFAULT_TOLERANCE = 1e-9

# (h, c) pairs per block of translates: the CH kernel's temporaries then
# stay in cache, and freed blocks are reused instead of faulted in afresh
_BLOCK_CELLS = 1 << 14


def _ring_of(domain) -> FiniteLieRing:
    return domain.ring if isinstance(domain, LazardGroup) else domain


def _same_domain(a, b) -> bool:
    if isinstance(a, LazardGroup) != isinstance(b, LazardGroup):
        return False
    return _ring_of(a) is _ring_of(b)


def element_table(domain):
    """Lex-ordered coordinate rows of the domain's elements: the rows of the
    ring's grid, shared by g and G."""
    return _ring_of(domain).grid.elements


class DualCharacter:
    """A character of (g, +), held as its exact exponent vector.

    The pairing with x is zeta^{sum_i a_i x_i p^{K-k_i}}; the exponent is
    reduced in Z/p^K before any complex value is formed, so products and
    equality of characters are exact.
    """

    __slots__ = ("ring", "exponents", "_weights")

    def __init__(self, ring: FiniteLieRing, exponents):
        exps = tuple(int(a) for a in exponents)
        if len(exps) != ring.rank:
            raise ValueError(f"expected {ring.rank} exponents")
        self.ring = ring
        self.exponents = tuple(a % s for a, s in zip(exps, ring.sizes))
        self._weights = np.array(
            [a * (ring.big // s) for a, s in zip(self.exponents, ring.sizes)],
            dtype=np.int64)

    def phase_on(self, X):
        """Pairing exponent(s) in Z/p^K for coordinate vector(s) X."""
        X = np.asarray(X, dtype=np.int64)
        return (X @ self._weights) % self.ring.big

    def values_on(self, X):
        phase = self.phase_on(X)
        return np.exp(2j * np.pi * phase / self.ring.big)

    def value(self, x) -> complex:
        return complex(self.values_on(x))

    def as_function(self, domain=None) -> "ClassFunction":
        """This character as a dense function on g (or, relabelled, on G)."""
        if domain is None:
            domain = self.ring
        if _ring_of(domain) is not self.ring:
            raise DomainMismatch("character and domain live on different rings")
        return ClassFunction(domain, self.values_on(element_table(domain)))

    def __eq__(self, other):
        return (isinstance(other, DualCharacter) and self.ring is other.ring
                and self.exponents == other.exponents)

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"DualCharacter{self.exponents}"


class DualSpace:
    """The full dual g* as an indexed exponent table.

    Row i of ``exponents`` is the exponent vector of the i-th character: the
    ring's grid, the same rows that enumerate g and G, so functions on g*
    are plain vectors aligned with them.  ``scale`` is p^{K-k_i} per
    coordinate and ``weights`` the rows times it: pairing exponents are
    weights @ x mod p^K.
    """

    __slots__ = ("ring", "exponents", "scale", "weights")

    def __init__(self, ring: FiniteLieRing):
        self.ring = ring
        self.exponents = ring.grid.elements
        self.scale = np.array([ring.big // s for s in ring.sizes],
                              dtype=np.int64)
        self.weights = self.exponents * self.scale

    def index_of(self, exponents) -> int:
        return self.ring.grid.index_of(exponents)

    def index_batch(self, A):
        return self.ring.grid.index_batch(A)

    def character(self, index: int) -> DualCharacter:
        return DualCharacter(self.ring, tuple(int(a) for a in
                                              self.exponents[index]))

    def __len__(self):
        return len(self.exponents)

    def __repr__(self):
        return f"DualSpace(|g*|={len(self)}, ring={self.ring!r})"


class ClassFunction:
    """Dense complex function on a ring g or a Lazard group G.

    Values are indexed by the shared lexicographic element enumeration.
    ``invariant`` is the caller's promise that the function is constant on
    Ad-orbits (ring domain) or conjugacy classes (group domain) to within
    ``tolerance``; consumers that need central functions check the flag.
    """

    __slots__ = ("domain", "values", "tolerance", "invariant")

    def __init__(self, domain, values, *, tolerance=DEFAULT_TOLERANCE,
                 invariant=False):
        vals = np.asarray(values, dtype=np.complex128)
        n = _ring_of(domain).order()
        if vals.shape != (n,):
            raise ValueError(f"expected {n} values, got shape {vals.shape}")
        self.domain = domain
        self.values = vals
        self.tolerance = float(tolerance)
        self.invariant = bool(invariant)

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        kind = "G" if isinstance(self.domain, LazardGroup) else "g"
        return (f"ClassFunction(|{kind}|={len(self)}, "
                f"invariant={self.invariant})")


class DualFunction:
    """Dense complex function on g*, indexed in DualSpace order."""

    __slots__ = ("ring", "values", "tolerance")

    def __init__(self, ring: FiniteLieRing, values, *,
                 tolerance=DEFAULT_TOLERANCE):
        vals = np.asarray(values, dtype=np.complex128)
        if vals.shape != (ring.order(),):
            raise ValueError(f"expected {ring.order()} values")
        self.ring = ring
        self.values = vals
        self.tolerance = float(tolerance)

    def support(self):
        """Indices where the value is nonzero beyond tolerance."""
        return np.nonzero(np.abs(self.values) > self.tolerance)[0]

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return f"DualFunction(|g*|={len(self)})"


def exp_star(f: ClassFunction, ring=None) -> ClassFunction:
    """Pull a group-side function back to the ring along exp.

    exp is the identity on coordinates, so this is a domain relabel; it is
    the operator that intertwines the two convolutions on invariant
    functions.
    """
    if not isinstance(f.domain, LazardGroup):
        raise DomainMismatch("exp_star expects a group-domain function")
    target = f.domain.ring if ring is None else ring
    if target is not f.domain.ring:
        raise DomainMismatch("ring is not the domain group's ring")
    return ClassFunction(target, f.values, tolerance=f.tolerance,
                         invariant=f.invariant)


def _check_law(domain, law) -> None:
    if law not in (ADDITIVE, GROUP):
        raise ValueError(f"unknown law {law!r}")
    if law == GROUP and not isinstance(domain, LazardGroup):
        raise DomainMismatch("GROUP law needs a LazardGroup domain")


def translates(domain, law, rows, cols=None):
    """Grid indices of h^{-1} c for h in ``rows`` and c in ``cols``.

    ``rows`` and ``cols`` index the domain's grid (``cols=None`` is every
    element); the result has shape (len(rows), len(cols)).  ``law`` picks
    the meaning of h^{-1} c: ``ADDITIVE`` is x_c - x_h on the ring,
    ``GROUP`` is the CH product CH(-x_h, x_c) and requires a group domain.

    The additive law reads per-coordinate tables built once per call,
    T_i[v, c] = ((x_{c,i} - v) mod s_i)·stride_i, and adds the rows
    T_i[x_{h,i}] over the coordinates, one h at a time: the index of
    x_c - x_h without forming the difference.  The group law runs the CH
    kernel in blocks of about ``_BLOCK_CELLS`` pairs.
    """
    _check_law(domain, law)
    ring = _ring_of(domain)
    grid = ring.grid
    H = grid.elements[rows]
    C = grid.elements if cols is None else grid.elements[cols]
    out = np.empty((len(H), len(C)), dtype=np.int64)
    if law == ADDITIVE:
        tables = []
        for i, (s, stride) in enumerate(zip(grid.sizes, grid.strides)):
            # diff[v, u] = ((u - v) mod s)·stride, read at u = x_{c,i}
            v = np.arange(s, dtype=np.int64)
            diff = (v - v[:, None]) % s * stride
            tables.append(np.take(diff, C[:, i], axis=1))
        for row, h in zip(out, H):
            row[...] = 0
            for table, v in zip(tables, h):
                row += table[v]
        return out
    step = max(1, _BLOCK_CELLS // len(C))
    for start in range(0, len(H), step):
        h = H[start:start + step]
        out[start:start + step] = ring.ch_batch(
            np.mod(-h, ring._mods)[:, None], C[None]) @ grid.strides
    return out


def convolve(f1: ClassFunction, f2: ClassFunction, law: str) -> ClassFunction:
    """(f1 * f2)(c) = (1/n) sum_h f1(h) f2(h^{-1} c), mass-1 Haar.

    ``law`` picks the meaning of h^{-1} c as in ``translates``: ``ADDITIVE``
    uses c - h on the ring, ``GROUP`` uses CH composition and requires a
    group domain.  Rows h with f1(h) = 0 are skipped; the others are
    translated in blocks of ``_BLOCK_CELLS`` pairs.
    """
    if not _same_domain(f1.domain, f2.domain):
        raise DomainMismatch("convolution needs a shared domain")
    _check_law(f1.domain, law)
    n = len(f1.values)
    out = np.zeros(n, dtype=np.complex128)
    step = max(1, _BLOCK_CELLS // n)
    for start in range(0, n, step):
        block = slice(start, min(n, start + step))
        coeffs = f1.values[block]
        if np.any(coeffs):
            out += coeffs @ f2.values[translates(f1.domain, law, block)]
    return ClassFunction(f1.domain, out / n,
                         tolerance=max(f1.tolerance, f2.tolerance),
                         invariant=f1.invariant and f2.invariant)


def fourier(f: ClassFunction) -> DualFunction:
    """(F f)(phi) = (1/|g|) sum_x f(x) conj(phi(x)), one FFT on the grid."""
    if isinstance(f.domain, LazardGroup):
        raise DomainMismatch("Fourier transform lives on the ring side; "
                             "pull back with exp_star first")
    ring = f.domain
    out = np.fft.fftn(f.values.reshape(ring.sizes)).ravel() / len(f.values)
    return DualFunction(ring, out, tolerance=f.tolerance)


def inverse_fourier(F: DualFunction) -> ClassFunction:
    """f(x) = sum_phi (F f)(phi) phi(x); counting measure on g*."""
    ring = F.ring
    out = len(F.values) * np.fft.ifftn(F.values.reshape(ring.sizes)).ravel()
    return ClassFunction(ring, out, tolerance=F.tolerance)


def inner(f1: ClassFunction, f2: ClassFunction) -> complex:
    """(1/n) sum f1 conj(f2) over the shared domain."""
    if not _same_domain(f1.domain, f2.domain):
        raise DomainMismatch("inner product needs a shared domain")
    return complex(np.vdot(f2.values, f1.values) / len(f1.values))
