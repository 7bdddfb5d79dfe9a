"""Finite nilpotent Lie rings, CH group law, adjoint maps, subrings, twist."""

import itertools
import random

import numpy as np
import pytest

from orbitkit.chsolver import ValuationRegime, solve_phi_psi, substituted_series
from orbitkit import liering
from orbitkit.errors import (JacobiViolation, PropertyFailed, RegimeViolation,
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

    # p = 2 rings [e1, e2] = c e3 with moduli 1..4 and order <= 6000 that
    # the uniform regime admits without the half-bracket condition:
    # check_group_axioms finds exactly these 24 of the 50 non-associative
    NON_ASSOCIATIVE = {
        ((1, 1, 3), 4), ((1, 1, 4), 8), ((1, 2, 3), 4), ((1, 2, 4), 8),
        ((1, 3, 3), 4), ((1, 3, 4), 8), ((1, 4, 3), 4), ((1, 4, 4), 8),
        ((2, 1, 3), 4), ((2, 1, 4), 8), ((2, 2, 4), 4), ((2, 2, 4), 12),
        ((2, 3, 4), 4), ((2, 3, 4), 12), ((2, 4, 4), 4), ((2, 4, 4), 12),
        ((3, 1, 3), 4), ((3, 1, 4), 8), ((3, 2, 4), 4), ((3, 2, 4), 12),
        ((4, 1, 3), 4), ((4, 1, 4), 8), ((4, 2, 4), 4), ((4, 2, 4), 12)}

    def test_half_bracket_condition_rejects_the_non_groups(self):
        rejected, accepted = set(), set()
        for moduli in itertools.product(range(1, 5), repeat=3):
            if sum(moduli) > 12:
                continue
            for c in range(1, 2 ** moduli[2]):
                try:
                    make_ring(2, moduli, {(0, 1): {2: c}})
                except RegimeViolation as exc:
                    if str(exc).startswith("half bracket"):
                        rejected.add((moduli, c))
                    continue
                except WellDefinednessViolation:
                    continue
                accepted.add((moduli, c))
        assert rejected == self.NON_ASSOCIATIVE
        assert len(accepted) == 26
        assert ((2, 2, 4), 8) in accepted

    def test_half_bracket_violation_names_pair_target_and_moduli(self):
        # x_1 lives mod 2, so 4z = [x, y]/2 changes when x_1 moves by 2
        with pytest.raises(RegimeViolation) as info:
            make_ring(2, (1, 1, 4), {(0, 1): {2: 8}})
        assert str(info.value) == (
            "half bracket [e0,e1]/2 -> e2 is not well defined: "
            "2^min(k0,k1) * 8 != 0 mod 2^(k2+1) for moduli (1, 1, 4)")

    @pytest.mark.parametrize("moduli, c", [((2, 2, 4), 8), ((2, 3, 3), 4),
                                           ((3, 3, 3), 4)],
                             ids=["224-c8", "233-c4", "333-c4"])
    def test_accepted_half_brackets_give_groups(self, moduli, c):
        ring = make_ring(2, moduli, {(0, 1): {2: c}})
        axioms = check_group_axioms(LazardGroup(ring))
        assert axioms["identity"] and axioms["inverse"]
        assert axioms["associativity"]

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

    def test_reuses_the_given_group(self, h3, h3_group, monkeypatch):
        def refuse(ring):
            raise AssertionError("twist_map built its own group")
        monkeypatch.setattr(liering, "LazardGroup", refuse)
        report = twist_map(h3, generic_pair(3), group=h3_group)
        assert report.all_passed()

    @pytest.mark.parametrize("budget", [2_000_000, 100],
                             ids=["exhaustive", "sampled"])
    def test_collisions_count_duplicate_images(self, h3, h3_group, budget):
        # a forged enumeration folds indices mod 5, so images collide; the
        # duplicate count is checked against np.unique
        codes = []

        class Folded:
            size = h3_group.size
            elements = h3_group.elements

            def index_batch(self, coords):
                codes.append(h3_group.index_batch(coords) % 5)
                return codes[-1]
        with pytest.raises(PropertyFailed) as info:
            twist_map(h3, generic_pair(3), group=Folded(),
                      pair_budget=budget, sample=200)
        joined = codes[0] * h3_group.size + codes[1]
        duplicates = len(joined) - np.unique(joined).size
        assert str(info.value) == \
            f"twist map collides: {duplicates} duplicate images"


def _twist_outcome(thunk):
    try:
        return "report", repr(thunk())
    except PropertyFailed as exc:
        return "raised", str(exc)


def _shifted_twists(monkeypatch, ring, both, x_only):
    """Patch exp_ad_batch so that x̃ moves by a central z at pairs whose x
    is ``both`` and ỹ moves back by z there (the sum identity holds, both
    twists break), and x̃ alone moves at pairs whose x is ``x_only`` (the
    sum identity breaks).  twist_map asks for x̃ and then ỹ of each block."""
    real = liering.FiniteLieRing.exp_ad_batch
    z = np.zeros(ring.rank, dtype=np.int64)
    z[-1] = 1
    pending = []

    def patched(self, W, X):
        out = real(self, W, X)
        if pending:
            out[pending.pop()] -= z
        else:
            hit = np.all(X == both, axis=-1)
            pending.append(hit)
            out[hit | np.all(X == x_only, axis=-1)] += z
        return np.mod(out, self._mods)
    monkeypatch.setattr(liering.FiniteLieRing, "exp_ad_batch", patched)


class TestTwistBlocks:
    """The exhaustive twist check in blocks of x rows reports what one
    evaluation over every pair reports."""

    @pytest.mark.parametrize("x_only, start", [
        (None, "x-twist is not the conjugation by exp of its own series"),
        ((2, 0, 2), "x̃ + ỹ != CH(x, y)")],
        ids=["twists-break", "later-sum-breaks"])
    def test_first_failure_matches_one_block(self, h3, h3_group, monkeypatch,
                                             x_only, start):
        pair = generic_pair(3)
        both = h3_group.elements[3]
        x_only = both if x_only is None else np.array(x_only)
        _shifted_twists(monkeypatch, h3, both, x_only)
        whole = _twist_outcome(lambda: twist_map(h3, pair, group=h3_group))
        # two x rows of 27 pairs per block: x = e_3 and (2, 0, 2) lie in
        # blocks 1 and 10
        monkeypatch.setattr(liering, "_TWIST_CELLS", 54)
        blocked = _twist_outcome(lambda: twist_map(h3, pair,
                                                   group=h3_group))
        assert blocked == whole
        assert blocked[0] == "raised" and blocked[1].startswith(start)
        assert f"at x={tuple(x_only)}, y=" in blocked[1]

    def test_valid_pair_passes_in_blocks(self, h3, h3_group, monkeypatch):
        monkeypatch.setattr(liering, "_TWIST_CELLS", 54)
        report = twist_map(h3, generic_pair(3), group=h3_group)
        assert report.all_passed()
        assert report.pairs_checked == 27 ** 2

    def test_collisions_count_over_every_block(self, h3, h3_group,
                                               monkeypatch):
        codes = []

        class Folded:
            size = h3_group.size
            elements = h3_group.elements

            def index_batch(self, coords):
                codes.append(h3_group.index_batch(coords) % 5)
                return codes[-1]
        monkeypatch.setattr(liering, "_TWIST_CELLS", 54)
        with pytest.raises(PropertyFailed) as info:
            twist_map(h3, generic_pair(3), group=Folded())
        assert len(codes) == 2 * 14
        joined = (np.concatenate(codes[0::2]) * h3_group.size
                  + np.concatenate(codes[1::2]))
        duplicates = len(joined) - np.unique(joined).size
        assert str(info.value) == \
            f"twist map collides: {duplicates} duplicate images"


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
