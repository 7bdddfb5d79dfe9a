"""Decomposition of the CH series as exp(ad phi)(x) + exp(ad psi)(y)."""

from fractions import Fraction

import pytest

from orbitkit import chsolver
from orbitkit.chsolver import (PhiPsiPair, ValuationRegime, check_identity,
                               solve_phi_psi, substituted_series)
from orbitkit.errors import (InputBoundViolation, OutputBoundViolation,
                             PropertyFailed)
from orbitkit.freelie import LiePoly, bch, exp_ad_apply, generator, vp
from orbitkit.ratlin import solve_right

REGIMES = [ValuationRegime.generic(3), ValuationRegime.generic(5),
           ValuationRegime.p3_uniform(), ValuationRegime.sqrtp(5),
           ValuationRegime.p2_half(), ValuationRegime.p2_quarter()]


@pytest.fixture(params=REGIMES, ids=lambda r: r.tag)
def regime(request):
    return request.param


class TestRegimeConstructors:
    def test_generic_needs_an_odd_prime(self):
        with pytest.raises(ValueError):
            ValuationRegime.generic(2)

    def test_sqrtp_needs_p_at_least_five(self):
        with pytest.raises(ValueError):
            ValuationRegime.sqrtp(3)

    @pytest.mark.parametrize("make, p", [
        (ValuationRegime.generic, 9), (ValuationRegime.sqrtp, 25),
        (ValuationRegime.generic, 1)])
    def test_composite_or_unit_prime_is_refused(self, make, p):
        with pytest.raises(ValueError, match=f"p = {p} is not prime"):
            make(p)

    def test_tags_are_distinct(self):
        assert len({r.tag for r in REGIMES}) == len(REGIMES)


class TestSubstitutedSeries:
    def test_input_bounds_hold(self, regime):
        # degree 1 is exempt: H_1 = x + y by construction
        series = substituted_series(regime, 6)
        for n in range(2, 7):
            v = regime.valuation(series.component(n), n - 1)
            assert v >= regime.input_bound(n)

    def test_scaled_series_rescales_ch(self, regime):
        if regime.scale_square == 1:
            pytest.skip("unscaled regime")
        # a rescaling regime solves CH in full, and reads H_n = s^(n-1) CH_n
        # through valuations; twice v_p(H_n) is the least v_p of c^2 s^(2n-2)
        # over the coefficients c of CH_n, and that needs no sqrt(p)
        series = substituted_series(regime, 6)
        assert series == bch(6)
        for n in range(1, 7):
            coefficients = series.component(n).terms.values()
            assert 2 * regime.valuation(series.component(n), n - 1) == min(
                vp(c * c * regime.scale_square ** (n - 1), regime.p)
                for c in coefficients)


class TestSolver:
    def test_identity_holds_to_degree_six(self, regime):
        series = substituted_series(regime, 6)
        pair = solve_phi_psi(series, regime, 6)
        assert pair.certified_to == 6
        assert check_identity(series, pair, 6)

    def test_output_bounds_hold(self, regime):
        # on the pair that solves H: s^n phi_n and s^n psi_n
        series = substituted_series(regime, 6)
        pair = solve_phi_psi(series, regime, 6)
        for n in range(1, 7):
            for s in (pair.phi, pair.psi):
                assert regime.valuation(s.component(n), n) \
                    >= regime.output_bound(n)

    def test_back_substitution_solves_raw_ch(self, regime):
        # the pair is solved in the unscaled variables, so it solves CH as
        # it is, less the degrees the regime discards
        series = substituted_series(regime, 5)
        pair = solve_phi_psi(series, regime, 5)
        lhs = exp_ad_apply(pair.phi, "x", 5) + exp_ad_apply(pair.psi, "y", 5)
        raw = bch(5)
        for n in range(1, 6):
            if regime.discard_from is not None and n >= regime.discard_from:
                assert not lhs.component(n)
            else:
                assert lhs.component(n) == raw.component(n)

    def test_sqrtp_back_substitution_is_rational(self):
        regime = ValuationRegime.sqrtp(5)
        pair = solve_phi_psi(substituted_series(regime, 6), regime, 6)
        for series in (pair.phi, pair.psi):
            assert all(type(c) is Fraction for c in series.terms.values())

    def test_sqrtp_solution_needs_the_surd(self):
        # the pair that solves H holds s^n phi_n: an odd power of sqrt(p),
        # so a half-integral valuation, at some odd degree
        regime = ValuationRegime.sqrtp(5)
        pair = solve_phi_psi(substituted_series(regime, 4), regime, 4)
        views = [regime.valuation(s.component(n), n)
                 for s in (pair.phi, pair.psi) for n in (1, 3)
                 if s.component(n)]
        assert any(v.denominator == 2 for v in views)

    def test_rescaled_regimes_solve_one_rational_pair(self):
        # unpinned and discarding nothing, they solve the same series
        pairs = []
        for regime in (ValuationRegime.p3_uniform(), ValuationRegime.sqrtp(5),
                       ValuationRegime.sqrtp(7), ValuationRegime.p2_quarter()):
            pair = solve_phi_psi(substituted_series(regime, 8), regime, 8)
            pairs.append((pair.phi, pair.psi))
        assert all(pair == pairs[0] for pair in pairs[1:])

    def test_p2_half_pins_degree_one(self):
        regime = ValuationRegime.p2_half()
        pair = solve_phi_psi(substituted_series(regime, 4), regime, 4)
        pinned_phi, pinned_psi = regime.pin_degree_one
        # psi_1 = x for H, so x/2 in the unscaled variables
        assert not pinned_phi
        assert pinned_psi == generator("x", 1) * Fraction(1, 2)
        assert pair.phi.component(1) == pinned_phi
        assert pair.psi.component(1) == pinned_psi

    def test_wrong_leading_term_is_rejected(self):
        regime = ValuationRegime.generic(3)
        x = generator("x", 3)
        with pytest.raises(ValueError):
            solve_phi_psi(x, regime, 3)

    @staticmethod
    def x_plus_y_plus(q, n_max=4):
        """x + y + q [x, y] through degree n_max."""
        return (generator("x", n_max) + generator("y", n_max)
                + LiePoly({(2, 0): q}, n_max))

    def test_series_violating_the_input_bound_is_rejected(self):
        regime = ValuationRegime.p2_half()
        # on the H view [x, y]/4 has v_2 = -2 + 1 < 0; raw CH, with
        # [x, y]/2, meets the bound
        with pytest.raises(InputBoundViolation, match=r"v_2\(H_2\) = -1 < 0"):
            solve_phi_psi(self.x_plus_y_plus(Fraction(1, 4)), regime, 4)

    def test_series_below_the_generic_floor_is_rejected(self):
        # v_3([x, y]/9) = -2 < 0, the floor at degree 2; s = 1 here
        regime = ValuationRegime.generic(3)
        with pytest.raises(InputBoundViolation, match=r"v_3\(H_2\) = -2 < 0"):
            solve_phi_psi(self.x_plus_y_plus(Fraction(1, 9)), regime, 4)

    def test_pair_failing_the_identity_raises_property_failed(self,
                                                              monkeypatch):
        monkeypatch.setattr(chsolver, "check_identity",
                            lambda series, pair, n_max: False)
        regime = ValuationRegime.generic(5)
        with pytest.raises(PropertyFailed,
                           match="solved pair fails the defining identity"):
            solve_phi_psi(substituted_series(regime, 4), regime, 4)

    def test_missed_output_bound_raises_after_one_solve(self, monkeypatch):
        # degree 3 reaches valuation 3/2; demanding 2 there must fail with
        # one solve per step, each step having one nonzero right side
        solves = []

        def counting(matrix, rhs):
            solves.append(any(rhs))
            return solve_right(matrix, rhs)
        monkeypatch.setattr(chsolver, "solve_right", counting)
        regime = ValuationRegime.sqrtp(5)
        series = substituted_series(regime, 5)
        guaranteed = regime.output_bound
        regime.output_bound = (
            lambda n: Fraction(2) if n == 3 else guaranteed(n))
        with pytest.raises(OutputBoundViolation) as info:
            solve_phi_psi(series, regime, 5)
        assert str(info.value) == "degree 3: valuation 3/2 below guaranteed 2"
        assert solves == [True, True, True]


class TestBounds:
    def test_generic_bounds(self):
        regime = ValuationRegime.generic(3)
        assert regime.input_bound(3) == -Fraction(1, 2)
        assert regime.output_bound(1) == 0
        assert regime.output_bound(4) == -Fraction(3, 2)

    def test_pair_repr_mentions_regime(self):
        regime = ValuationRegime.generic(3)
        pair = solve_phi_psi(substituted_series(regime, 3), regime, 3)
        assert isinstance(pair, PhiPsiPair)
        assert "generic:3" in repr(pair)
