"""Decomposition of the CH series as exp(ad phi)(x) + exp(ad psi)(y)."""

from fractions import Fraction

import pytest

from orbitkit import chsolver
from orbitkit.chsolver import (PhiPsiPair, ValuationRegime, check_identity,
                               solve_phi_psi, substituted_series)
from orbitkit.errors import (InputBoundViolation, OutputBoundViolation,
                             PropertyFailed)
from orbitkit.freelie import bch, exp_ad_apply, generator, valuation_of
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

    def test_tags_are_distinct(self):
        assert len({r.tag for r in REGIMES}) == len(REGIMES)


class TestSubstitutedSeries:
    def test_input_bounds_hold(self, regime):
        # degree 1 is exempt: H_1 = x + y by construction
        series = substituted_series(regime, 6)
        for n in range(2, 7):
            v = valuation_of(series.component(n), regime.p)
            assert v >= regime.input_bound(n)

    def test_scaled_series_rescales_ch(self, regime):
        if regime.scale is None:
            pytest.skip("unscaled regime")
        series = substituted_series(regime, 4)
        raw = bch(4)
        for n in range(1, 5):
            # scale_power(n) is s^(n-1)
            expected = raw.component(n) * regime.scale_power(n)
            assert series.component(n) == expected


class TestSolver:
    def test_identity_holds_to_degree_six(self, regime):
        series = substituted_series(regime, 6)
        pair = solve_phi_psi(series, regime, 6)
        assert pair.certified_to == 6
        assert check_identity(series, pair, 6)

    def test_output_bounds_hold(self, regime):
        series = substituted_series(regime, 6)
        pair = solve_phi_psi(series, regime, 6)
        for n in range(1, 7):
            for s in (pair.phi, pair.psi):
                assert valuation_of(s.component(n), regime.p) \
                    >= regime.output_bound(n)

    def test_back_substitution_solves_raw_ch(self, regime):
        series = substituted_series(regime, 5)
        pair = solve_phi_psi(series, regime, 5)
        phi, psi = pair.back_substituted()
        lhs = exp_ad_apply(phi, "x", 5) + exp_ad_apply(psi, "y", 5)
        raw = bch(5)
        for n in range(1, 6):
            if regime.discard_from is not None and n >= regime.discard_from:
                assert not lhs.component(n)
            else:
                assert lhs.component(n) == raw.component(n)

    def test_sqrtp_back_substitution_is_rational(self):
        regime = ValuationRegime.sqrtp(5)
        pair = solve_phi_psi(substituted_series(regime, 6), regime, 6)
        for series in pair.back_substituted():
            assert all(c.surd == 0 for c in series.terms.values())

    def test_sqrtp_solution_needs_the_surd(self):
        regime = ValuationRegime.sqrtp(5)
        pair = solve_phi_psi(substituted_series(regime, 4), regime, 4)
        surds = [c.surd for s in (pair.phi, pair.psi)
                 for c in s.terms.values()]
        assert any(surds)

    def test_p2_half_pins_degree_one(self):
        regime = ValuationRegime.p2_half()
        pair = solve_phi_psi(substituted_series(regime, 4), regime, 4)
        pinned_phi, pinned_psi = regime.pin_degree_one
        assert pair.phi.component(1) == pinned_phi
        assert pair.psi.component(1) == pinned_psi

    def test_wrong_leading_term_is_rejected(self):
        regime = ValuationRegime.generic(3)
        x = generator("x", 3)
        with pytest.raises(ValueError):
            solve_phi_psi(x, regime, 3)

    def test_series_violating_the_input_bound_is_rejected(self):
        regime = ValuationRegime.p2_half()
        # raw CH violates the p2 bound v_2(H_n) >= 0 from degree 2 on
        with pytest.raises(InputBoundViolation):
            solve_phi_psi(bch(4), regime, 4)


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
