"""Finite nilpotent Lie rings, CH group law, adjoint maps, subrings, twist."""

import itertools
import random

import numpy as np
import pytest

from orbitkit.chsolver import ValuationRegime, solve_phi_psi, substituted_series
from orbitkit.errors import (JacobiViolation, RegimeViolation,
                             SubringNotClosed, WellDefinednessViolation)
from orbitkit.harmonic import DualSpace
from orbitkit.liering import (Grid, LazardGroup, Subring, ad_action,
                              check_group_axioms, make_ring, twist_map,
                              uniform_quotient)


def generic_pair(p, degree=4):
    regime = ValuationRegime.generic(p)
    return solve_phi_psi(substituted_series(regime, degree), regime, degree)


class TestMakeRing:
    def test_heisenberg_invariants(self, h3):
        assert h3.order() == 27
        assert h3.class_ == 2
        assert h3.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
        assert h3.bracket((0, 1, 0), (1, 0, 0)) == (0, 0, 2)

    def test_nilpotence_class_of_unitriangular(self, u4_f5):
        assert u4_f5.class_ == 3
        assert u4_f5.order() == 5 ** 6

    def test_abelian_ring(self):
        ring = make_ring(3, (2, 1), {})
        assert ring.class_ <= 1
        assert ring.order() == 27

    def test_jacobi_violation_is_rejected(self):
        # [[e3,e1],e2] = -e3 is the only nonzero cyclic term
        with pytest.raises(JacobiViolation):
            make_ring(5, (1, 1, 1), {(0, 1): {2: 1}, (0, 2): {0: 1}})

    def test_non_nilpotent_ring_is_rejected(self):
        # [e1, e2] = e1 stalls the lower central series; class inf fails
        # both the class < p gate and the uniformity gate
        with pytest.raises(RegimeViolation):
            make_ring(5, (1, 1), {(0, 1): {0: 1}})

    def test_ill_defined_constants_are_rejected(self):
        # [p*e1, e2] = 0 forces p*[e1, e2] = 0, but p*e3 != 0 in Z/p^2
        with pytest.raises(WellDefinednessViolation):
            make_ring(3, (1, 1, 2), {(0, 1): {2: 1}})

    def test_class_must_stay_under_p_without_uniformity(self):
        # class-3 chain at p = 3 with unit constants: no regime applies
        with pytest.raises(RegimeViolation):
            make_ring(3, (1, 1, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}})

    def test_uniform_depth(self, rank3_z8, h3):
        assert rank3_z8.uniform_depth == 2
        assert rank3_z8.uniform
        assert h3.uniform_depth == 0
        assert not h3.uniform

    def test_uniform_quotient_matches_make_ring(self, rank3_z8):
        ring = uniform_quotient(2, 3, {(0, 1): {2: 4}}, 3)
        assert ring.moduli == rank3_z8.moduli
        assert ring.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 4)


class TestGroupLaw:
    def test_heisenberg_product(self, h3):
        # CH(e1, e2) = e1 + e2 + (1/2)[e1, e2]; 1/2 = 2 mod 3
        assert h3.ch_multiply((1, 0, 0), (0, 1, 0)) == (1, 1, 2)

    def test_axioms_exhaustive(self, h3_group):
        report = check_group_axioms(h3_group)
        assert report["mode"] == "exhaustive"
        assert report["identity"] and report["inverse"]
        assert report["associativity"]

    def test_axioms_sampled(self, z9_group):
        report = check_group_axioms(z9_group, random.Random(0))
        assert report["mode"] == "sampled"
        assert report["identity"] and report["inverse"]
        assert report["associativity"]

    def test_axioms_on_p2_uniform(self, rank3_z8_group):
        report = check_group_axioms(rank3_z8_group, random.Random(0))
        assert report["identity"] and report["inverse"]
        assert report["associativity"]

    def test_index_roundtrip(self, h5):
        group = LazardGroup(h5)
        rng = random.Random(0)
        for _ in range(20):
            x = tuple(rng.randrange(5) for _ in range(3))
            assert group.coords_of(group.index_of(x)) == x

    def test_batch_matches_scalar(self, z9):
        rng = np.random.default_rng(0)
        U = rng.integers(0, 9, size=(30, 3))
        V = rng.integers(0, 9, size=(30, 3))
        batch = z9.ch_batch(U, V)
        for u, v, w in zip(U, V, batch):
            assert z9.ch_multiply(tuple(u), tuple(v)) == tuple(w)


class TestGrid:
    def test_lex_order_with_mixed_moduli(self):
        grid = Grid((4, 2, 8))
        assert [tuple(r) for r in grid.elements.tolist()] == \
            list(itertools.product(range(4), range(2), range(8)))
        assert grid.strides.tolist() == [16, 8, 1]

    def test_index_batch_roundtrip(self):
        grid = Grid((9, 3, 27))
        n = len(grid.elements)
        assert np.array_equal(grid.index_batch(grid.elements), np.arange(n))
        shifted = grid.elements + np.array([9, -6, 54]) * 5
        assert np.array_equal(grid.index_batch(shifted), np.arange(n))
        rng = np.random.default_rng(3)
        for i in rng.integers(0, n, size=20).tolist():
            assert grid.index_of(grid.elements[i]) == i
        X = grid.elements[rng.integers(0, n, size=(4, 5))]
        assert grid.index_batch(X).shape == (4, 5)

    def test_rank_zero(self):
        grid = make_ring(3, (), {}).grid
        assert grid.elements.shape == (1, 0)
        assert grid.strides.shape == (0,)
        assert grid.index_of(()) == 0
        assert grid.index_batch(np.zeros((4, 0), dtype=np.int64)).tolist() \
            == [0, 0, 0, 0]

    def test_table_is_read_only(self, h3):
        with pytest.raises(ValueError):
            h3.grid.elements[0, 0] = 1

    def test_one_grid_per_ring_for_g_and_dual(self, z9):
        assert z9.grid is z9.grid
        assert DualSpace(z9).exponents is LazardGroup(z9).elements
        assert LazardGroup(z9).elements is z9.grid.elements

    @pytest.mark.parametrize("generators", [[(3, 0, 0), (0, 3, 0), (0, 0, 3)],
                                            [(0, 0, 1)], []])
    def test_subring_ambient_indices(self, z9, generators):
        sub = Subring(z9, generators)
        idx = sub.ambient_indices()
        assert len(idx) == sub.induced.order()
        for i, row in enumerate(sub.induced.grid.elements.tolist()):
            assert tuple(z9.grid.elements[idx[i]]) == sub.embed_coords(row)


class TestAdjoint:
    def test_certified_on_random_elements(self, z9):
        rng = random.Random(0)
        for _ in range(10):
            g = tuple(rng.randrange(9) for _ in range(3))
            amap = ad_action(z9, g)
            x = tuple(rng.randrange(9) for _ in range(3))
            conj = z9.ch_multiply(z9.ch_multiply(g, x), z9.negate(g))
            assert amap.apply(x) == conj

    def test_exp_ad_is_group_inverse_consistent(self, rank3_z8):
        rng = random.Random(1)
        for _ in range(10):
            g = tuple(rng.randrange(8) for _ in range(3))
            m_fwd = rank3_z8.exp_ad_matrix(g)
            m_bwd = rank3_z8.exp_ad_matrix(rank3_z8.negate(g))
            prod = np.mod(m_fwd @ m_bwd, rank3_z8._mods[:, None])
            eye = np.mod(np.eye(3, dtype=np.int64), rank3_z8._mods[:, None])
            assert np.array_equal(prod, eye)


class TestTwist:
    def test_exhaustive_on_heisenberg(self, h3):
        report = twist_map(h3, generic_pair(3))
        assert report.all_passed()
        assert report.mode == "exhaustive"
        assert report.pairs_checked == 27 ** 2

    def test_undercertified_pair_is_rejected(self, h3):
        regime = ValuationRegime.generic(3)
        pair = solve_phi_psi(substituted_series(regime, 1), regime, 1)
        with pytest.raises(ValueError):
            twist_map(h3, pair)


class TestSubring:
    def test_center_of_heisenberg(self, h3):
        sub = Subring(h3, [(0, 0, 1)])
        assert sub.orders == (1,)
        assert sub.induced.order() == 3
        assert sub.contains((0, 0, 2))
        assert not sub.contains((1, 0, 0))

    def test_unclosed_generators_are_rejected(self, h3):
        with pytest.raises(SubringNotClosed):
            Subring(h3, [(1, 0, 0), (0, 1, 0)])

    def test_express_embed_roundtrip(self, z9):
        sub = Subring(z9, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
        rng = random.Random(0)
        for _ in range(15):
            coords = tuple(rng.randrange(3) for _ in range(3))
            x = sub.embed_coords(coords)
            assert sub.express(x) == coords

    def test_scaled_subring(self, z9):
        full = Subring(z9, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        sub = full.scaled(3)
        assert sub.orders == (1, 1, 1)
        # [3x, 3y] = 9z = 0 in Z/9: the induced ring is abelian
        assert sub.induced.class_ <= 1

    def test_cyclic_span_keeps_group_structure(self):
        # span of (2, 1) inside (Z/4)^2 is Z/4, not Z/2 x Z/2
        ring = make_ring(2, (2, 2), {})
        sub = Subring(ring, [(2, 1)])
        assert sub.orders == (2,)
        assert sub.induced.order() == 4

    def test_restrict_dual(self, h3):
        sub = Subring(h3, [(0, 0, 1)])
        assert sub.restrict_dual((0, 0, 2)) == (2,)
        assert sub.restrict_dual((1, 2, 0)) == (0,)
