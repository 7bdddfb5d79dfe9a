"""Pontryagin duality and harmonic analysis on a finite Lie ring.

The additive group of g = prod_i Z/p^{k_i} is self-dual: a character is an
exponent vector a with a_i in Z/p^{k_i}, pairing with x in g as
zeta^{sum_i a_i x_i p^{K-k_i}} where K = max k_i and zeta = exp(2 pi i/p^K).
``DualSpace`` holds every character as a row of its exponent table, and its
``weights`` turn pairings into exact integer phases in Z/p^K; complex values
appear only in the functions on g, G and g* and their transforms, in double
precision, where desk-scale group orders keep rounding far below tolerance.

Haar measure is normalized to total mass 1 on every domain.  Two
convolutions share that normalization: the additive law on g replaces
h^{-1} gamma with gamma - h, the group law on exp(g) with CH composition.
``translates`` computes h^{-1} gamma under either law, for ``convolve`` and
for the class counts of the oracle and the verification suites.
g* is the same mixed-radix grid as g (C order on shape ``ring.sizes``), so
the transforms are library FFTs, ``numpy.fft.fftn``/``ifftn`` on that shape,
or over the grid axes of a stack of functions, one per row.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainMismatch
from .liering import FiniteLieRing, LazardGroup, negate

ADDITIVE = "additive"
GROUP = "group"

# (h, c) pairs per block of translates: the CH kernel's temporaries then
# stay in cache, and freed blocks are reused instead of faulted in afresh
_BLOCK_CELLS = 1 << 14


def _ring_of(domain) -> FiniteLieRing:
    return domain.ring if isinstance(domain, LazardGroup) else domain


def _same_domain(a, b) -> bool:
    if isinstance(a, LazardGroup) != isinstance(b, LazardGroup):
        return False
    return _ring_of(a) is _ring_of(b)


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

    def __len__(self):
        return len(self.exponents)

    def __repr__(self):
        return f"DualSpace(|g*|={len(self)}, ring={self.ring!r})"


class ClassFunction:
    """Dense complex function on a ring g or a Lazard group G, or a stack of
    them, one per row.

    Values are indexed by the shared lexicographic element enumeration.
    Constancy on conjugacy classes is not enforced here; the suites that
    rely on it check it (``kirillov_character``, ``verify_idempotents``).
    """

    __slots__ = ("domain", "values")

    def __init__(self, domain, values):
        vals = np.asarray(values, dtype=np.complex128)
        n = _ring_of(domain).order()
        if vals.ndim not in (1, 2) or vals.shape[-1] != n:
            raise ValueError(f"expected {n} values, got shape {vals.shape}")
        self.domain = domain
        self.values = vals

    def __len__(self):
        return self.values.shape[-1]

    def __repr__(self):
        kind = "G" if isinstance(self.domain, LazardGroup) else "g"
        return f"ClassFunction(|{kind}|={len(self)})"


class DualFunction:
    """Dense complex function on g*, indexed in DualSpace order, or a stack
    of them, one per row."""

    __slots__ = ("ring", "values")

    def __init__(self, ring: FiniteLieRing, values):
        vals = np.asarray(values, dtype=np.complex128)
        if vals.ndim not in (1, 2) or vals.shape[-1] != ring.order():
            raise ValueError(f"expected {ring.order()} values")
        self.ring = ring
        self.values = vals

    def __len__(self):
        return self.values.shape[-1]

    def __repr__(self):
        return f"DualFunction(|g*|={len(self)})"


def exp_star(f: ClassFunction) -> ClassFunction:
    """Pull a group-side function back to the group's ring along exp.

    exp is the identity on coordinates, so this is a domain relabel; it is
    the operator that intertwines the two convolutions on invariant
    functions.
    """
    if not isinstance(f.domain, LazardGroup):
        raise DomainMismatch("exp_star expects a group-domain function")
    return ClassFunction(f.domain.ring, f.values)


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
    T_i[x_{h,i}] over the coordinates, one gather per coordinate: the
    index of x_c - x_h without forming the difference.  The group law runs
    the CH kernel in blocks of about ``_BLOCK_CELLS`` pairs.
    """
    _check_law(domain, law)
    ring = _ring_of(domain)
    grid = ring.grid
    H = grid.elements[rows]
    C = grid.elements if cols is None else grid.elements[cols]
    if law == ADDITIVE:
        out = np.zeros((len(H), len(C)), dtype=np.int64)
        for i, (s, stride) in enumerate(zip(grid.sizes, grid.strides)):
            # diff[v, u] = ((u - v) mod s)·stride, read at u = x_{c,i}
            v = np.arange(s, dtype=np.int64)
            diff = (v - v[:, None]) % s * stride
            out += np.take(diff, C[:, i], axis=1)[H[:, i]]
        return out
    out = np.empty((len(H), len(C)), dtype=np.int64)
    step = max(1, _BLOCK_CELLS // len(C))
    for start in range(0, len(H), step):
        h = H[start:start + step]
        out[start:start + step] = ring.ch_batch(
            negate(h, ring._mods)[:, None], C[None]) @ grid.strides
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
    return ClassFunction(f1.domain, out / n)


def _grid_fft(transform, ring, values):
    """``transform`` over the grid axes of ``values``, in their shape; every
    axis writes to one output array, bit for bit as one allocated per
    axis."""
    lead = values.ndim - 1
    shaped = values.reshape(values.shape[:lead] + ring.sizes)
    axes = tuple(range(lead, shaped.ndim))
    return transform(shaped, axes=axes,
                     out=np.empty_like(shaped)).reshape(values.shape)


def fourier(f: ClassFunction) -> DualFunction:
    """(F f)(phi) = (1/|g|) sum_x f(x) conj(phi(x)), one FFT on the grid."""
    if isinstance(f.domain, LazardGroup):
        raise DomainMismatch("Fourier transform lives on the ring side; "
                             "pull back with exp_star first")
    ring = f.domain
    out = _grid_fft(np.fft.fftn, ring, f.values)
    out /= len(f)
    return DualFunction(ring, out)


def inverse_fourier(F: DualFunction) -> ClassFunction:
    """f(x) = sum_phi (F f)(phi) phi(x); counting measure on g*."""
    ring = F.ring
    out = _grid_fft(np.fft.ifftn, ring, F.values)
    out *= len(F)
    return ClassFunction(ring, out)

