"""Degree-by-degree decomposition H = exp(ad phi)(x) + exp(ad psi)(y).

Given a truncated Lie series H with H_1 = x + y whose coefficients satisfy
a regime-specific p-adic valuation floor, the solver produces truncated Lie
series phi and psi whose degree-n terms satisfy a guaranteed output floor.
At each degree the unknowns enter linearly through [phi_n, x] + [psi_n, y];
everything already determined feeds a known remainder, and the resulting
integer linear system is solved exactly with a fixed column order (phi
block before psi block, bases in Lyndon order) and free variables pinned to
zero.  The output bound is then asserted, not assumed.

Five regimes are supported:

* ``generic(p)``   -- H is CH with degrees >= p discarded; all coefficients
                      are then p-integral and the output floor is -(n-1)/(p-1).
* ``p3_uniform``   -- p = 3, H = CH in full; input floor -(6n-10)/7, output
                      floor -(6n-4)/7 (the slack comes from v_3(k!) <= (k-1)/2).
* ``sqrtp(p)``     -- H = CH(sqrt(p) x, sqrt(p) y)/sqrt(p), p >= 5; nonnegative
                      input valuations, and the solution is chosen purely even
                      for the Z/2-grading in which x, y and sqrt(p) are odd, so
                      substituting back x -> x/sqrt(p) lands in plain Q.
* ``p2_half``      -- p = 2, H = CH(2x, 2y)/2 with the degree-one choice
                      phi_1 = 0, psi_1 = x pinned (x/2 after back-substitution).
* ``p2_quarter``   -- the same rescaled series, viewed with arguments ranging
                      over a sublattice 2g with [g, g] contained in 4g; the
                      solver itself is unpinned and the floors match p2_half.
"""

from __future__ import annotations

from fractions import Fraction

from . import freelie
from .errors import (InputBoundViolation, LinearSystemInconsistent,
                     OutputBoundViolation, PropertyFailed)
from .freelie import (LiePoly, Scalar, bch, bracket_table, exp_ad_apply,
                      generator, lyndon_count, valuation_of)
from .ratlin import solve_right


class ValuationRegime:
    """A named valuation environment for the solver.

    Bundles the prime, the input floor required of H, the output floor
    guaranteed for phi and psi, the variable rescaling that produces H from
    CH, and the structural constraints (parity, pinned degree one).
    """

    def __init__(self, tag, p, input_bound, output_bound, *, scale=None,
                 discard_from=None, parity_even=False, pin_degree_one=None):
        self.tag = tag
        self.p = p
        self.input_bound = input_bound
        self.output_bound = output_bound
        self.scale = scale                      # s with H_n = s^(n-1) CH_n
        self.discard_from = discard_from        # drop CH components >= this degree
        self.parity_even = parity_even
        self.pin_degree_one = pin_degree_one    # (phi_1, psi_1) LiePolys

    @classmethod
    def generic(cls, p: int) -> "ValuationRegime":
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
        if p < 5:
            raise ValueError("sqrtp regime needs p >= 5")
        return cls(f"sqrtp:{p}", p,
                   lambda n: Fraction(0),
                   lambda n: -Fraction(n - 1, p - 1),
                   scale=Scalar.sqrt(p), parity_even=True)

    @classmethod
    def p2_half(cls) -> "ValuationRegime":
        pin = (LiePoly.zero(1), generator("x", 1))
        return cls("p2-half", 2,
                   lambda n: Fraction(0),
                   lambda n: -Fraction(n - 1),
                   scale=Scalar(2), pin_degree_one=pin)

    @classmethod
    def p2_quarter(cls) -> "ValuationRegime":
        return cls("p2-quarter", 2,
                   lambda n: Fraction(0),
                   lambda n: -Fraction(n - 1),
                   scale=Scalar(2))

    def scale_power(self, n: int) -> Scalar:
        """s^(n-1) as an exact scalar (s may be sqrt(p))."""
        if self.scale is None:
            return Scalar(1)
        out = Scalar(1)
        for _ in range(n - 1):
            out = out * self.scale
        return out

    def back_scale(self, n: int) -> Scalar:
        """s^(-n), the degree-n coefficient factor of the back-substitution."""
        if self.scale is None:
            return Scalar(1)
        return self.scale_power(n + 1).inverse()

    def __repr__(self):
        return f"ValuationRegime({self.tag})"


def substituted_series(regime: ValuationRegime, n_max: int) -> LiePoly:
    """The regime's input series H through degree n_max, bounds asserted."""
    powers = {n: regime.scale_power(n) for n in range(1, n_max + 1)
              if regime.discard_from is None or n < regime.discard_from}
    series = LiePoly({(n, k): c * powers[n]
                      for (n, k), c in bch(n_max).terms.items()
                      if n in powers}, n_max)
    _check_input_bound(series, regime, n_max)
    return series


def _check_input_bound(series: LiePoly, regime: ValuationRegime, n_max: int):
    for n in range(2, n_max + 1):
        v = valuation_of(series.component(n), regime.p)
        if v < regime.input_bound(n):
            raise InputBoundViolation(
                f"v_{regime.p}(H_{n}) = {v} < {regime.input_bound(n)}")


def _split_rat_surd(poly: LiePoly):
    rat = {k: c.rat for k, c in poly.terms.items() if c.rat}
    surd = {k: c.surd for k, c in poly.terms.items() if c.surd}
    return rat, surd


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
    p = regime.p
    m_in = lyndon_count(n)
    m_out = lyndon_count(n + 1)
    matrix = _step_matrix(n)
    rat, surd = _split_rat_surd(rhs)
    rat_vec = [rat.get((n + 1, k), Fraction(0)) for k in range(m_out)]
    surd_vec = [surd.get((n + 1, k), Fraction(0)) for k in range(m_out)]

    if regime.parity_even:
        # solution components of degree n must be even for the grading where
        # x, y, sqrt(p) are odd: even n forces a rational component, odd n a
        # pure surd component, and the complementary right side must vanish
        want_zero = surd_vec if n % 2 == 0 else rat_vec
        if any(want_zero):
            raise LinearSystemInconsistent(
                f"degree {n}: parity-forbidden component is nonzero")

    parts = []
    for vec in (rat_vec, surd_vec):
        if any(vec):
            sol = solve_right(matrix, vec)
            if sol is None:
                raise LinearSystemInconsistent(f"degree {n} step unsolvable")
            parts.append(sol)
        else:
            parts.append([Fraction(0)] * (2 * m_in))
    rat_sol, surd_sol = parts

    def make(offset):
        terms = {}
        for j in range(m_in):
            r, s = rat_sol[offset + j], surd_sol[offset + j]
            if r or s:
                terms[(n, j)] = Scalar(r, s, p if s else None)
        return LiePoly(terms, n)

    phi_n, psi_n = make(0), make(m_in)
    bound = regime.output_bound(n)
    v = min(valuation_of(phi_n, p), valuation_of(psi_n, p))
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

    def back_substituted(self):
        """The pair rewritten for the unscaled variables, so that
        exp(ad phi)(x) + exp(ad psi)(y) = CH(x, y).

        Degree-n coefficients pick up s^(-n).  For the sqrt(p) regime the
        parity-even choice makes every rescaled coefficient rational; a surd
        surviving here is a bug and raises ValueError.
        """
        if self.regime.scale is None:
            return self.phi, self.psi
        out = []
        for series in (self.phi, self.psi):
            scales = [self.regime.back_scale(n)
                      for n in range(series.max_degree + 1)]
            terms = {}
            for (n, k), c in series.terms.items():
                c = c * scales[n]
                if c.surd:
                    raise ValueError(
                        f"degree {n}: coefficient {c} left Q after back-substitution")
                terms[(n, k)] = c
            out.append(LiePoly(terms, series.max_degree))
        return tuple(out)

    def __repr__(self):
        return (f"PhiPsiPair({self.regime.tag}, certified_to={self.certified_to})")


def solve_phi_psi(series: LiePoly, regime: ValuationRegime,
                  n_max: int) -> PhiPsiPair:
    """Solve H = exp(ad phi)(x) + exp(ad psi)(y) through degree n_max."""
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
    """Does exp(ad phi)(x) + exp(ad psi)(y) equal H exactly through degree n_max?"""
    lhs = exp_ad_apply(pair.phi, "x", n_max) + exp_ad_apply(pair.psi, "y", n_max)
    return all(lhs.component(n) == series.component(n)
               for n in range(1, n_max + 1))
