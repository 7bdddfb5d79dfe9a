"""Finite nilpotent Lie rings, CH group law, adjoint maps, subrings, twist."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from orbitkit.chsolver import ValuationRegime, solve_phi_psi, substituted_series
from orbitkit import liering
from orbitkit.cli import load_ring_spec
from orbitkit.errors import (JacobiViolation, PropertyFailed, RegimeViolation,
                             SubringNotClosed, WellDefinednessViolation)
from orbitkit.freelie import LiePoly
from orbitkit.liering import (Grid, LazardGroup, Subring, _poly_terms,
                              make_ring, twist_map, uniform_quotient)
from orbitkit.oracle import conjugation_certificate
from orbitkit.orbitmethod import coadjoint_orbits

from conftest import ch, character_values, check_group_axioms, express
from test_kernel import RINGS as KERNEL_RINGS, class2_ring


RING_SPECS = [
    path for path in sorted(
        (Path(__file__).resolve().parent.parent / "specs").glob("*.json"))
    if "moduli" in json.loads(path.read_text())]


def generic_pair(p, degree=4):
    regime = ValuationRegime.generic(p)
    return solve_phi_psi(substituted_series(regime, degree), regime, degree)


def spy_codes(monkeypatch, fold=None):
    """Record (shape, codes) of every grid-index batch read while the test
    runs, the codes folded mod ``fold`` when it is given, so that twist
    images collide."""
    real = liering.Grid.index_batch
    calls = []

    def spy(self, X):
        codes = real(self, X)
        if fold is not None:
            codes = codes % fold
        calls.append((np.shape(X), codes))
        return codes
    monkeypatch.setattr(liering.Grid, "index_batch", spy)
    return calls


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
        assert ch(h3, (1, 0, 0), (0, 1, 0)) == (1, 1, 2)

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

    def test_index_roundtrip(self, h5_group):
        rng = random.Random(0)
        for _ in range(20):
            x = tuple(rng.randrange(5) for _ in range(3))
            index = h5_group.ring.grid.index_batch(x)
            assert tuple(h5_group.elements[index].tolist()) == x

    def test_batch_matches_scalar(self, z9):
        rng = np.random.default_rng(0)
        U = rng.integers(0, 9, size=(30, 3))
        V = rng.integers(0, 9, size=(30, 3))
        batch = z9.ch_batch(U, V)
        for u, v, w in zip(U, V, batch):
            assert ch(z9, tuple(u), tuple(v)) == tuple(w)


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
            assert grid.index_batch(grid.elements[i]) == i
        X = grid.elements[rng.integers(0, n, size=(4, 5))]
        assert grid.index_batch(X).shape == (4, 5)

    def test_rank_zero(self):
        grid = make_ring(3, (), {}).grid
        assert grid.elements.shape == (1, 0)
        assert grid.strides.shape == (0,)
        assert grid.index_batch(()) == 0
        assert grid.index_batch(np.zeros((4, 0), dtype=np.int64)).tolist() \
            == [0, 0, 0, 0]

    def test_table_is_read_only(self, h3):
        with pytest.raises(ValueError):
            h3.grid.elements[0, 0] = 1

    def test_one_grid_per_ring_for_g_and_dual(self, z9):
        # g* is the grid too: a coadjoint orbit indexes it through the ring
        assert z9.grid is z9.grid
        assert LazardGroup(z9).elements is z9.grid.elements
        assert coadjoint_orbits(LazardGroup(z9))[0].ring is z9

    @pytest.mark.parametrize("generators", [[(3, 0, 0), (0, 3, 0), (0, 0, 3)],
                                            [(0, 0, 1)], []])
    def test_subring_ambient_indices(self, z9, generators):
        sub = Subring(z9, generators)
        idx = sub.ambient_indices()
        assert len(idx) == sub.induced.order()
        for i, row in enumerate(sub.induced.grid.elements.tolist()):
            # sum_j c_j b_j, added up one basis row at a time
            x = [0] * z9.rank
            for c, b in zip(row, sub.basis_coords):
                x = [(u + c * v) % s for u, v, s in zip(x, b, z9.sizes)]
            assert tuple(z9.grid.elements[idx[i]]) == tuple(x)


class TestAdjoint:
    """The conjugation certificate against scalar CH products, and
    Ad(e^g) = exp(ad g) off the basis through the homomorphism Ad."""

    def test_certified_on_random_elements(self, z9):
        # B_s from the certificate conjugates like two scalar CH products
        cert = conjugation_certificate(LazardGroup(z9))
        rng = random.Random(0)
        for i, B in enumerate(cert.matrices):
            s = z9.basis(i)
            assert np.array_equal(B, z9.exp_ad_matrix(s).T)
            for _ in range(10):
                x = tuple(rng.randrange(9) for _ in range(3))
                conj = ch(z9, ch(z9, s, x), z9.scale(s, -1))
                assert tuple((np.array(x) @ B % 9).tolist()) == conj

    def test_products_of_generators_give_exp_ad(self, z9):
        # Ad is a homomorphism, so the certified B_s multiply out to
        # exp(ad g) at any g = log(s_1 ... s_k), not only at the basis
        cert = conjugation_certificate(LazardGroup(z9))
        rng = random.Random(2)
        for _ in range(10):
            word = [rng.randrange(3) for _ in range(5)]
            g, B = (0, 0, 0), np.eye(3, dtype=np.int64)
            for i in word:
                g = ch(z9, g, z9.basis(i))
            # x -> x B_{s_k} ... B_{s_1} conjugates by s_1 ... s_k
            for i in reversed(word):
                B = B @ cert.matrices[i] % 9
            assert np.array_equal(B, z9.exp_ad_matrix(g).T)

    def test_exp_ad_is_group_inverse_consistent(self, rank3_z8):
        rng = random.Random(1)
        for _ in range(10):
            g = tuple(rng.randrange(8) for _ in range(3))
            m_fwd = rank3_z8.exp_ad_matrix(g)
            m_bwd = rank3_z8.exp_ad_matrix(rank3_z8.scale(g, -1))
            prod = np.mod(m_fwd @ m_bwd, rank3_z8._mods[:, None])
            eye = np.mod(np.eye(3, dtype=np.int64), rank3_z8._mods[:, None])
            assert np.array_equal(prod, eye)


class TestTwist:
    def test_exhaustive_on_heisenberg(self, h3_group):
        # a failed property raises, so a return is a pass
        pairs_checked, mode = twist_map(h3_group, generic_pair(3))
        assert mode == "exhaustive"
        assert pairs_checked == 27 ** 2

    def test_undercertified_pair_is_rejected(self, h3_group):
        regime = ValuationRegime.generic(3)
        pair = solve_phi_psi(substituted_series(regime, 1), regime, 1)
        with pytest.raises(ValueError):
            twist_map(h3_group, pair)

    def test_collisions_count_duplicate_images(self, h3_group, monkeypatch):
        # a forged enumeration folds indices mod 5, so images collide; the
        # duplicate count is checked against np.unique
        sampled(monkeypatch)
        pair = generic_pair(3)
        calls = spy_codes(monkeypatch, fold=5)
        with pytest.raises(PropertyFailed) as info:
            twist_map(h3_group, pair)
        codes = [c for _, c in calls]
        joined = codes[0] * h3_group.size + codes[1]
        duplicates = len(joined) - np.unique(joined).size
        assert str(info.value) == \
            f"twist map collides: {duplicates} duplicate images"

    def test_simplex_counts_no_images(self, h3_group, monkeypatch):
        # class 2 < p = 3 within the budget: φ and ψ are evaluated once, on
        # the C(2·3 + 2, 2) = 28 simplex points, and the map is injective
        # by proof, so folded image codes cannot fail it: none is read
        shapes = []
        real = liering.FiniteLieRing.evaluate_series_batch

        def spy(self, series, U, V):
            shapes.append((np.shape(U), np.shape(V)))
            return real(self, series, U, V)
        monkeypatch.setattr(liering.FiniteLieRing, "evaluate_series_batch",
                            spy)
        calls = spy_codes(monkeypatch, fold=5)
        assert twist_map(h3_group, generic_pair(3)) == (27 ** 2, "exhaustive")
        assert shapes == [((28, 3), (28, 3))] * 2
        assert calls == []


def sampled(monkeypatch, cells=None):
    """Make twist_map check 200 seeded pairs one by one (a budget of 100
    pairs), in blocks of ``cells`` pairs when given."""
    monkeypatch.setattr(liering, "TWIST_PAIR_BUDGET", 100)
    monkeypatch.setattr(liering, "TWIST_SAMPLE", 200)
    if cells:
        monkeypatch.setattr(liering, "_TWIST_CELLS", cells)


def _twist_outcome(thunk):
    try:
        return "report", thunk()
    except PropertyFailed as exc:
        return "raised", str(exc)


def _shifted_twists(monkeypatch, ring, both, x_only):
    """Patch exp_ad_batch so that x̃ moves by a central z at pairs whose x
    is ``both`` and ỹ moves back by z there (the sum identity holds, both
    twists break), and x̃ alone moves at pairs whose x is ``x_only`` (the
    sum identity breaks).  twist_map asks for x̃ and then ỹ of each block.
    The shifts are not polynomial, so only the index-pair checks (sampled
    or uniform) can see them."""
    real = liering.FiniteLieRing.exp_ad_batch
    z = np.zeros(ring.rank, dtype=np.int64)
    z[-1] = 1
    pending = []

    def patched(self, W, X):
        out = real(self, W, X)
        if pending:
            out = out - z * pending.pop()[..., None]
        else:
            hit = np.all(X == both, axis=-1)
            pending.append(hit)
            out = out + z * (hit | np.all(X == x_only, axis=-1))[..., None]
        return np.mod(out, self._mods)
    monkeypatch.setattr(liering.FiniteLieRing, "exp_ad_batch", patched)


class TestTwistBlocks:
    """The sampled twist check in blocks of pairs reports what one
    evaluation over every sampled pair reports."""

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
        sampled(monkeypatch)
        whole = _twist_outcome(lambda: twist_map(h3_group, pair))
        # 175 sampled pairs, 54 per block: x = e_3 and (2, 0, 2) lie in
        # the first and the third block
        monkeypatch.setattr(liering, "_TWIST_CELLS", 54)
        blocked = _twist_outcome(lambda: twist_map(h3_group, pair))
        assert blocked == whole
        assert blocked[0] == "raised" and blocked[1].startswith(start)
        assert f"at x={tuple(x_only.tolist())}, y=" in blocked[1]

    def test_valid_pair_passes_in_blocks(self, h3_group, monkeypatch):
        sampled(monkeypatch, 54)
        pair = generic_pair(3)
        assert twist_map(h3_group, pair) == reference_twist(h3_group, pair)

    def test_collisions_count_over_every_block(self, h3_group, monkeypatch):
        sampled(monkeypatch, 54)
        pair = generic_pair(3)
        pairs, _ = reference_twist(h3_group, pair)
        calls = spy_codes(monkeypatch, fold=5)
        with pytest.raises(PropertyFailed) as info:
            twist_map(h3_group, pair)
        codes = [c for _, c in calls]
        assert len(codes) == 2 * -(-pairs // 54)
        joined = np.concatenate([x * h3_group.size + y
                                 for x, y in zip(codes[0::2], codes[1::2])])
        duplicates = len(joined) - np.unique(joined).size
        assert str(info.value) == \
            f"twist map collides: {duplicates} duplicate images"

    @pytest.mark.parametrize("degree, want", [
        (3, ("raised", "x̃ + ỹ != CH(x, y) at x=(0, 1), y=(1, 0)")),
        (5, ("report", (243 ** 2, "exhaustive")))],
        ids=["cli-degree-fails", "degree-5-passes"])
    def test_uniform_ring_matches_the_reference(self, monkeypatch, degree,
                                                want):
        # every pair of a uniform ring within the budget, in blocks of 1000.
        # The p3-uniform pair of verify's degree, max(2, class) = 3, fails
        # the sum identity here (see test_cli's xfail); solved to degree 5
        # it passes, so the collision count runs too
        ring = make_ring(3, (3, 2), {(0, 1): {0: 12}}, label="uniform-243")
        assert ring.uniform and ring.class_ == 3
        group = LazardGroup(ring)
        regime = ValuationRegime.p3_uniform()
        pair = solve_phi_psi(substituted_series(regime, degree), regime,
                             degree)
        monkeypatch.setattr(liering, "_TWIST_CELLS", 1000)
        got = _twist_outcome(lambda: twist_map(group, pair))
        assert got == _twist_outcome(lambda: reference_twist(group, pair))
        assert got == want


def reference_twist(group, pair, budget=None):
    """The twist check as one evaluation: every pair (the seeded sample
    above the budget, ``TWIST_PAIR_BUDGET`` by default) in one (k, rank)
    batch, φ and ψ on both operands, both twists through
    ``conjugate_batch``, and failures in the order sum identity, x-twist,
    y-twist, collisions.  At class c < p φ and ψ stop at degree c, whose
    longer words vanish on the ring."""
    ring = group.ring
    phi, psi = pair.phi, pair.psi
    if not ring.uniform:
        phi, psi = (s.with_max_degree(ring.class_) for s in (phi, psi))
    n = group.size
    if n * n <= (liering.TWIST_PAIR_BUDGET if budget is None else budget):
        ia, ib = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        mode = "exhaustive"
    else:
        rng = random.Random(0)
        seen = {(rng.randrange(n), rng.randrange(n))
                for _ in range(liering.TWIST_SAMPLE)}
        ia, ib = np.array(sorted(seen), dtype=np.int64).T
        mode = "sampled"
    U, V = group.elements[ia], group.elements[ib]
    phi_vals = ring.evaluate_series_batch(phi, U, V)
    psi_vals = ring.evaluate_series_batch(psi, U, V)
    xt = ring.exp_ad_batch(phi_vals, U)
    yt = ring.exp_ad_batch(psi_vals, V)

    def at(k):
        return f"x={tuple(U[k].tolist())}, y={tuple(V[k].tolist())}"
    bad = np.flatnonzero(np.any(np.mod(xt + yt, ring._mods)
                                != ring.ch_batch(U, V), axis=-1))
    if bad.size:
        raise PropertyFailed(f"x̃ + ỹ != CH(x, y) at {at(bad[0])}")
    for W, X, T, tag in ((phi_vals, U, xt, "x"), (psi_vals, V, yt, "y")):
        bad = np.flatnonzero(np.any(group.conjugate_batch(W, X) != T,
                                    axis=-1))
        if bad.size:
            raise PropertyFailed(
                f"{tag}-twist is not the conjugation by exp of its own "
                f"series at {at(bad[0])}")
    codes = ring.grid.index_batch(xt) * n + ring.grid.index_batch(yt)
    duplicates = len(codes) - np.unique(codes).size
    if duplicates:
        raise PropertyFailed(
            f"twist map collides: {duplicates} duplicate images")
    return len(codes), mode


class ForgedPair:
    """A (φ, ψ) pair given outright, certified to the given degree."""

    def __init__(self, phi, psi, certified_to):
        self.phi, self.psi, self.certified_to = phi, psi, certified_to


class ForgedGroup:
    """The group with its conjugation moved by a central z at the elements
    equal to ``at``, on every call or only where g vanishes everywhere (the
    y-twist of a pair with ψ = 0).  Not polynomial: only the index-pair
    checks can see it."""

    def __init__(self, group, at, *, psi_only=False):
        self.group, self.at, self.psi_only = group, at, psi_only
        self.ring, self.size, self.elements = (group.ring, group.size,
                                               group.elements)
        self.z = np.zeros(group.ring.rank, dtype=np.int64)
        self.z[-1] = 1

    def conjugate_batch(self, g, X):
        out = self.group.conjugate_batch(g, X)
        if self.at is None or (self.psi_only and np.any(g)):
            return out
        hit = np.all(X == self.at, axis=-1)
        return np.mod(out + self.z * hit[..., None], self.group.ring._mods)


class TestTwistReference:
    """twist_map gives the report or the failure text of one evaluation
    over every pair, or over every sampled pair (reference_twist)."""

    @staticmethod
    def both(group, pair):
        return (_twist_outcome(lambda: twist_map(group, pair)),
                _twist_outcome(lambda: reference_twist(group, pair)))

    @pytest.mark.parametrize("x_only", [None, (2, 0, 2)],
                             ids=["twists-break", "later-sum-breaks"])
    @pytest.mark.parametrize("cells", [None, 54], ids=["one-block", "blocks"])
    def test_forged_twists_on_heisenberg(self, h3, h3_group, monkeypatch,
                                         x_only, cells):
        both = h3_group.elements[3]
        _shifted_twists(monkeypatch, h3, both,
                        both if x_only is None else np.array(x_only))
        sampled(monkeypatch, cells)
        got, want = self.both(h3_group, generic_pair(3))
        assert got == want
        assert got[0] == "raised"

    def test_class_three_reads_both_operands(self):
        # the simplex (C(8 + 3, 3) = 165 points) against all 390,625 pairs
        ring = make_ring(5, (1,) * 4, {(0, 1): {2: 1}, (0, 2): {3: 1}},
                         label="filiform4_f5")
        assert ring.class_ == 3
        regime = ValuationRegime.generic(5)
        pair = solve_phi_psi(substituted_series(regime, 3), regime, 3)
        assert all(any(len(w) > 1 for w, _ in _poly_terms(s))
                   for s in (pair.phi, pair.psi))
        got, want = self.both(LazardGroup(ring), pair)
        assert got == want
        assert got[1][1] == "exhaustive"

    def test_sampled(self, h5, h5_group, monkeypatch):
        monkeypatch.setattr(liering, "TWIST_PAIR_BUDGET", 100)
        got, want = self.both(h5_group, generic_pair(5))
        assert got == want
        assert got[1][1] == "sampled"

    @pytest.mark.parametrize("q, verdict", [
        (Fraction(1, 2), "report"), (1, "raised")],
        ids=["conjugates", "sum-breaks"])
    def test_psi_reads_only_x(self, h3_group, q, verdict):
        # φ = 0, ψ = q·x: ỹ = y + q[x, y], so x̃ + ỹ = CH(x, y) exactly
        # at q = 1/2, and e^(ad ψ)y is the conjugate of y by e^ψ at class 2
        psi = LiePoly({(1, 0): Fraction(q)}, 2)
        pair = ForgedPair(LiePoly.zero(2), psi, 2)
        got, want = self.both(h3_group, pair)
        assert got == want
        assert got[0] == verdict

    # at degree 2 on a class-2 ring φ = −y/2 and ψ = 0, so ỹ = y and a
    # ForgedGroup can break the y-twist alone

    @staticmethod
    def degree_two(p):
        return generic_pair(p, degree=2)

    def test_series_read_no_x(self):
        pair = self.degree_two(3)
        assert [w for w, _ in _poly_terms(pair.phi)] == [(1,)]
        assert [w for w, _ in _poly_terms(pair.psi)] == []

    @pytest.mark.parametrize("scenario, start", [
        ("y-twist", "y-twist"), ("both-twists", "x-twist"),
        ("later-sum", "x̃ + ỹ != CH(x, y)"),
        ("collisions", "twist map collides")])
    @pytest.mark.parametrize("cells", [None, 54], ids=["one-block", "blocks"])
    def test_degree_two_failures(self, h3_group, monkeypatch, scenario,
                                 start, cells):
        at = h3_group.elements[3]
        group = ForgedGroup(h3_group, None if scenario == "collisions" else at,
                            psi_only=scenario == "y-twist")
        if scenario == "collisions":
            spy_codes(monkeypatch, fold=5)
        if scenario == "later-sum":
            # x̃ moves at x = (2, 0, 2), past the twist failures at x = e_3
            real = liering.FiniteLieRing.exp_ad_batch
            x_only = np.array((2, 0, 2))

            def moved(self, W, X):
                out = real(self, W, X)
                if not np.any(W):
                    return out
                hit = np.all(X == x_only, axis=-1)
                return np.mod(out + group.z * hit[..., None], self._mods)
            monkeypatch.setattr(liering.FiniteLieRing, "exp_ad_batch", moved)
        sampled(monkeypatch, cells)
        got, want = self.both(group, self.degree_two(3))
        assert got == want
        assert got[0] == "raised" and got[1].startswith(start)
        if scenario == "later-sum":
            assert f"at x={tuple(x_only.tolist())}, y=" in got[1]

    @pytest.mark.parametrize("at", [None, 7], ids=["valid", "y-twist"])
    def test_sampled_at_degree_two(self, h5_group, monkeypatch, at):
        monkeypatch.setattr(liering, "TWIST_PAIR_BUDGET", 100)
        group = ForgedGroup(h5_group, None if at is None
                            else h5_group.elements[at], psi_only=True)
        got, want = self.both(group, self.degree_two(5))
        assert got == want
        assert got[0] == ("report" if at is None else "raised")


# -- the simplex certificate --------------------------------------------------------

def _simplex_rings():
    """The class < p rings (p >= 3) within the twist budget among the ring
    specs, the kernel tests' rings and drawn class-2 rings, one per law."""
    rings = ([load_ring_spec(path) for path in RING_SPECS]
             + [ring for _, ring, _ in KERNEL_RINGS]
             + [class2_ring(seed) for seed in range(4, 12)])
    out = {}
    for ring in rings:
        if (ring.p >= 3 and not ring.uniform
                and ring.order() ** 2 <= liering.TWIST_PAIR_BUDGET):
            key = (ring.p, ring.moduli, repr(sorted(ring.constants.items())))
            out.setdefault(key, ring)
    return list(out.values())


SIMPLEX_RINGS = _simplex_rings()
# the all-pairs reference runs up to this order, one on 2,000 seeded pairs
# above it: a broken identity of degree c < p fails at a share 1 - c/p of
# the pairs or more (Schwartz-Zippel), at least a third on these rings
ALL_PAIRS_ORDER = 125


def forged_pairs(ring, pair):
    """(name, pair) for φ or ψ plus k·w, w in x, y, [x, y], [x, [x, y]] up to
    the class and k in 1, 2, p: each a Lie series, so a polynomial check
    sees it."""
    phi, psi = pair.phi, pair.psi
    top = phi.max_degree
    for (degree, index), word in (((1, 0), "x"), ((1, 1), "y"),
                                  ((2, 0), "[x,y]"), ((3, 0), "[x,[x,y]]")):
        if degree > ring.class_:
            continue
        for k in (1, 2, ring.p):
            w = LiePoly({(degree, index): Fraction(k)}, top)
            yield (f"phi+{k}{word}",
                   ForgedPair(phi + w, psi, pair.certified_to))
            yield (f"psi+{k}{word}",
                   ForgedPair(phi, psi + w, pair.certified_to))


def verdict(outcome):
    """"report", or the failed property: the text before its witness."""
    kind, value = outcome
    return kind if kind == "report" else value.split(" at ")[0].split(":")[0]


class TestSimplexCertificate:
    @pytest.mark.parametrize("m, d", [(0, 0), (0, 3), (1, 4), (3, 2),
                                      (6, 2), (4, 3)])
    def test_simplex_points(self, m, d):
        points = liering._simplex(m, d)
        assert len(points) == math.comb(m + d, d)
        # itertools.product is lexicographic
        assert points == [j for j in itertools.product(range(d + 1), repeat=m)
                          if sum(j) <= d]

    def test_rings_cover_the_regime(self):
        assert {ring.class_ for ring in SIMPLEX_RINGS} == {2, 3}
        assert any(len(set(ring.moduli)) > 1 for ring in SIMPLEX_RINGS)
        assert any(ring.order() > ALL_PAIRS_ORDER for ring in SIMPLEX_RINGS)

    @pytest.mark.parametrize("ring", SIMPLEX_RINGS,
                             ids=lambda ring: ring.label)
    def test_forged_series_match_the_reference(self, ring, monkeypatch):
        monkeypatch.setattr(liering, "TWIST_SAMPLE", 2000)
        group = LazardGroup(ring)
        pair = generic_pair(ring.p, max(2, ring.class_))
        budget = None if ring.order() <= ALL_PAIRS_ORDER else 0
        verdicts = Counter()
        for name, forged in [("genuine", pair)] + list(forged_pairs(ring,
                                                                    pair)):
            got = verdict(_twist_outcome(lambda: twist_map(group, forged)))
            assert got == verdict(_twist_outcome(
                lambda: reference_twist(group, forged, budget))), name
            verdicts[got] += 1
        assert verdicts["report"] < sum(verdicts.values())

    @pytest.mark.parametrize("ring", SIMPLEX_RINGS,
                             ids=lambda ring: ring.label)
    def test_no_collision_at_any_pair(self, ring):
        # injectivity is proved, not counted, in twist_map: count it here
        E = ring.grid.elements
        n = len(E)
        pair = generic_pair(ring.p, max(2, ring.class_))
        U, V = E[:, None], E[None, :]
        xt = ring.exp_ad_batch(ring.evaluate_series_batch(pair.phi, U, V), U)
        yt = ring.exp_ad_batch(ring.evaluate_series_batch(pair.psi, U, V), V)
        codes = ring.grid.index_batch(xt) * n + ring.grid.index_batch(yt)
        assert np.unique(codes).size == n * n


class TestNegate:
    @pytest.mark.parametrize("path", RING_SPECS, ids=lambda path: path.stem)
    def test_matches_np_mod_on_every_element(self, path):
        ring = load_ring_spec(path)
        E = ring.grid.elements
        assert np.array_equal(liering.negate(E, ring._mods),
                              np.mod(-E, ring._mods))


class TestSubring:
    def test_center_of_heisenberg(self, h3):
        sub = Subring(h3, [(0, 0, 1)])
        assert sub.orders == (1,)
        assert sub.induced.order() == 3
        assert sub.basis_coords == [(0, 0, 1)]
        assert h3.grid.elements[sub.ambient_indices()].tolist() == \
            [[0, 0, 0], [0, 0, 1], [0, 0, 2]]
        assert express(sub, (0, 0, 2)) == (2,)
        with pytest.raises(ValueError, match="not in the subring"):
            express(sub, (1, 0, 0))

    def test_unclosed_generators_are_rejected(self, h3):
        with pytest.raises(SubringNotClosed):
            Subring(h3, [(1, 0, 0), (0, 1, 0)])

    def test_express_embed_roundtrip(self, z9):
        # the embedding is ambient_indices; solving back in the subring
        # basis (conftest ``express``) returns the induced coordinates
        sub = Subring(z9, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
        ambient = z9.grid.elements[sub.ambient_indices()]
        for coords, x in zip(sub.induced.grid.elements.tolist(), ambient):
            assert express(sub, tuple(x.tolist())) == tuple(coords)

    def test_scaled_subring(self, z9):
        sub = Subring(z9, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
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
        # a character of g restricts to the subring's character whose
        # exponents come from pairing with the subring basis
        sub = Subring(h3, [(0, 0, 1)])
        assert restrict_dual(sub, (0, 0, 2)) == (2,)
        assert restrict_dual(sub, (1, 2, 0)) == (0,)
        idx = sub.ambient_indices()
        for exponents in ((0, 0, 2), (1, 2, 1), (2, 0, 0)):
            ambient = character_values(h3, exponents, h3.grid.elements)
            restricted = character_values(
                sub.induced, restrict_dual(sub, exponents),
                sub.induced.grid.elements)
            assert np.allclose(ambient[idx], restricted, atol=1e-12)


def restrict_dual(sub, exponents):
    """Restriction of a dual character of g (given by its exponent vector)
    to a character of the subring in its own basis."""
    ring = sub.ring
    out = []
    for b, kappa in zip(sub.basis_coords, sub.orders):
        e_val = sum(int(a) * int(c) * ring.p ** (ring.cap - k)
                    for a, c, k in zip(exponents, b, ring.moduli)) % ring.big
        div = ring.p ** (ring.cap - kappa)
        assert e_val % div == 0, "character does not restrict"
        out.append(e_val // div % ring.p ** kappa)
    return tuple(out)
