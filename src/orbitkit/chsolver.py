"""Degree-by-degree decomposition CH = exp(ad phi)(x) + exp(ad psi)(y).

The solver takes a truncated Lie series S with S_1 = x + y, the CH series
less any degrees its regime discards, and produces truncated Lie series phi
and psi with S = exp(ad phi)(x) + exp(ad psi)(y).  At each degree the
unknowns enter linearly through [phi_n, x] + [psi_n, y]; everything already
determined feeds a known remainder, and the resulting rational linear
system is solved exactly with a fixed column order (phi block before psi
block, bases in Lyndon order) and free variables pinned to zero.

A regime states its floors for the series H(x, y) = S(s x, s y)/s, which
rescales the variables by s (s = 1 when it does not), and for the pair that
solves H.  Degree n of H is s^(n-1) S_n, every term of the remainder at
degree n + 1 carries s^n, and the step's pivots depend on its matrix alone,
so the pair that solves H is exactly s^n phi_n, s^n psi_n.  So every regime
solves the rational series S, and reads the rescaled valuations as
v_p(H_n) = v_p(S_n) + (n-1) v_p(s) and v_p(s^n phi_n) = v_p(phi_n) +
n v_p(s), with v_p(sqrt p) = 1/2.  Both floors are asserted, not assumed.

Five regimes are supported:

* ``generic(p)``   -- S is CH with degrees >= p discarded; all coefficients
                      are then p-integral and the output floor is -(n-1)/(p-1).
* ``p3_uniform``   -- p = 3, S = CH in full; input floor -(6n-10)/7, output
                      floor -(6n-4)/7 (the slack comes from v_3(k!) <= (k-1)/2).
* ``sqrtp(p)``     -- s = sqrt(p), p >= 5; nonnegative input valuations.
* ``p2_half``      -- p = 2, s = 2, with the degree-one choice phi_1 = 0,
                      psi_1 = x/2 pinned (psi_1 = x for H).
* ``p2_quarter``   -- the same rescaled series, viewed with arguments ranging
                      over a sublattice 2g with [g, g] contained in 4g; the
                      solver itself is unpinned and the floors match p2_half.
"""

from __future__ import annotations

from fractions import Fraction

from . import freelie
from .errors import (InputBoundViolation, LinearSystemInconsistent,
                     OutputBoundViolation, PropertyFailed)
from .freelie import (LiePoly, bch, bracket_table, exp_ad_apply, generator,
                      is_prime, lyndon_count, valuation_of, vp)
from .ratlin import solve_right


class ValuationRegime:
    """A named valuation environment for the solver.

    Bundles the prime, the input floor required of H, the output floor
    guaranteed for the pair that solves H, the square of the rescaling s
    (1 for none), the degrees of CH it discards and its pinned degree one.
    """

    def __init__(self, tag, p, input_bound, output_bound, *, scale_square=1,
                 discard_from=None, pin_degree_one=None):
        self.tag = tag
        self.p = p
        self.input_bound = input_bound
        self.output_bound = output_bound
        self.scale_square = scale_square        # s^2 with H_n = s^(n-1) S_n
        self.discard_from = discard_from        # drop CH components >= this degree
        self.pin_degree_one = pin_degree_one    # (phi_1, psi_1) LiePolys

    @classmethod
    def generic(cls, p: int) -> "ValuationRegime":
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p < 3:
            raise ValueError("generic regime needs p >= 3 (use p2_half/p2_quarter)")
        return cls(f"generic:{p}", p,
                   lambda n: -Fraction(n - 2, p - 1),
                   lambda n: -Fraction(n - 1, p - 1),
                   discard_from=p)

    @classmethod
    def p3_uniform(cls) -> "ValuationRegime":
        return cls("p3-uniform", 3,
                   lambda n: -Fraction(6 * n - 10, 7),
                   lambda n: -Fraction(6 * n - 4, 7))

    @classmethod
    def sqrtp(cls, p: int) -> "ValuationRegime":
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p < 5:
            raise ValueError("sqrtp regime needs p >= 5")
        return cls(f"sqrtp:{p}", p,
                   lambda n: Fraction(0),
                   lambda n: -Fraction(n - 1, p - 1),
                   scale_square=p)

    @classmethod
    def p2_half(cls) -> "ValuationRegime":
        pin = (LiePoly.zero(1), generator("x", 1) * Fraction(1, 2))
        return cls("p2-half", 2,
                   lambda n: Fraction(0),
                   lambda n: -Fraction(n - 1),
                   scale_square=4, pin_degree_one=pin)

    @classmethod
    def p2_quarter(cls) -> "ValuationRegime":
        return cls("p2-quarter", 2,
                   lambda n: Fraction(0),
                   lambda n: -Fraction(n - 1),
                   scale_square=4)

    def valuation(self, poly: LiePoly, power: int):
        """v_p(s^power poly); math.inf for 0.  s^2 is rational, so the even
        part of the power is multiplied in, and an odd power adds
        v_p(s) = v_p(s^2)/2, which is 1/2 for s = sqrt(p)."""
        half, odd = divmod(power, 2)
        return (valuation_of(poly * self.scale_square ** half, self.p)
                + odd * vp(self.scale_square, self.p) / 2)

    def __repr__(self):
        return f"ValuationRegime({self.tag})"


def substituted_series(regime: ValuationRegime, n_max: int) -> LiePoly:
    """CH through degree n_max less the degrees the regime discards, with
    the input floor asserted on its H view."""
    top = n_max if regime.discard_from is None else regime.discard_from - 1
    series = LiePoly({key: c for key, c in bch(n_max).terms.items()
                      if key[0] <= top}, n_max)
    _check_input_bound(series, regime, n_max)
    return series


def _check_input_bound(series: LiePoly, regime: ValuationRegime, n_max: int):
    for n in range(2, n_max + 1):
        v = regime.valuation(series.component(n), n - 1)
        if v < regime.input_bound(n):
            raise InputBoundViolation(
                f"v_{regime.p}(H_{n}) = {v} < {regime.input_bound(n)}")


def _step_matrix(n: int):
    """Matrix of (u, v) -> [u, x] + [v, y] from degree n pairs to degree n+1.

    Rows follow the Lyndon order in degree n+1; the first m_n columns are the
    phi block, the rest the psi block.  Entries are integers.
    """
    m_in = lyndon_count(n)
    m_out = lyndon_count(n + 1)
    table = bracket_table(n, 1)
    matrix = [[Fraction(0)] * (2 * m_in) for _ in range(m_out)]
    for j in range(m_in):
        for gen_idx, col in ((0, j), (1, m_in + j)):
            for k, c in table.get((j, gen_idx), ()):
                matrix[k][col] = Fraction(c)
    return matrix


def _solve_step(n: int, rhs: LiePoly, regime: ValuationRegime):
    """Solve [phi_n, x] + [psi_n, y] = rhs; returns (phi_n, psi_n)."""
    m_in = lyndon_count(n)
    vec = [rhs.terms.get((n + 1, k), Fraction(0))
           for k in range(lyndon_count(n + 1))]
    sol = solve_right(_step_matrix(n), vec)
    if sol is None:
        raise LinearSystemInconsistent(f"degree {n} step unsolvable")
    phi_n, psi_n = (LiePoly({(n, j): sol[offset + j] for j in range(m_in)}, n)
                    for offset in (0, m_in))
    bound = regime.output_bound(n)
    v = min(regime.valuation(phi_n, n), regime.valuation(psi_n, n))
    if v < bound:
        raise OutputBoundViolation(
            f"degree {n}: valuation {v} below guaranteed {bound}")
    return phi_n, psi_n


class PhiPsiPair:
    """A solved pair of truncated Lie series with its regime and
    certification degree."""

    def __init__(self, phi: LiePoly, psi: LiePoly,
                 regime: ValuationRegime, certified_to: int):
        self.phi = phi
        self.psi = psi
        self.regime = regime
        self.certified_to = certified_to

    def __repr__(self):
        return (f"PhiPsiPair({self.regime.tag}, certified_to={self.certified_to})")


def solve_phi_psi(series: LiePoly, regime: ValuationRegime,
                  n_max: int) -> PhiPsiPair:
    """Solve series = exp(ad phi)(x) + exp(ad psi)(y) through degree n_max."""
    x_plus_y = generator("x", n_max) + generator("y", n_max)
    if series.component(1) != x_plus_y:
        raise ValueError("H_1 must equal x + y")
    _check_input_bound(series, regime, min(n_max, series.max_degree))

    phi = psi = LiePoly.zero(n_max)
    for n in range(1, n_max):
        known = (exp_ad_apply(phi, "x", n + 1)
                 + exp_ad_apply(psi, "y", n + 1)).component(n + 1)
        rhs = series.component(n + 1) - known
        if n == 1 and regime.pin_degree_one is not None:
            phi_n, psi_n = regime.pin_degree_one
            produced = (freelie.bracket(phi_n, generator("x", 2), 2)
                        + freelie.bracket(psi_n, generator("y", 2), 2))
            if produced != rhs.with_max_degree(2):
                raise LinearSystemInconsistent(
                    "pinned degree-one choice is inconsistent with H_2")
        else:
            phi_n, psi_n = _solve_step(n, rhs, regime)
        phi += phi_n.with_max_degree(n_max)
        psi += psi_n.with_max_degree(n_max)

    pair = PhiPsiPair(phi, psi, regime, n_max)
    if not check_identity(series, pair, n_max):  # bug guard
        raise PropertyFailed("solved pair fails the defining identity")
    return pair


def check_identity(series: LiePoly, pair: PhiPsiPair, n_max: int) -> bool:
    """Does exp(ad phi)(x) + exp(ad psi)(y) equal the series exactly
    through degree n_max?"""
    lhs = exp_ad_apply(pair.phi, "x", n_max) + exp_ad_apply(pair.psi, "y", n_max)
    return all(lhs.component(n) == series.component(n)
               for n in range(1, n_max + 1))
