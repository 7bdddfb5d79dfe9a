"""Brute-force character theory: classes, Burnside tables, matching."""

from collections import Counter

import numpy as np
import pytest

from orbitkit import oracle, orbitmethod
from orbitkit.errors import DomainMismatch, NoMatching, StabilityCheckFailed
from orbitkit.harmonic import ClassFunction, DualCharacter
from orbitkit.liering import Subring
from orbitkit.oracle import (character_table, closure_with_audit,
                             conjugacy_classes, match_tables,
                             permutation_orbits, restriction_multiplicity)


def full_functions(table):
    """Expand table rows from class representatives to all group elements."""
    dense = table.rows[:, table.partition.labels]
    return [ClassFunction(table.group, row, invariant=True) for row in dense]


class TestPermutationOrbits:
    def test_single_cycle(self):
        perm = np.array([1, 2, 3, 4, 0])
        labels, orbits = permutation_orbits(5, [perm])
        assert len(orbits) == 1
        assert np.array_equal(orbits[0], np.arange(5))
        assert np.array_equal(labels, np.zeros(5, dtype=np.int64))

    def test_no_permutations_gives_singletons(self):
        labels, orbits = permutation_orbits(4, [])
        assert len(orbits) == 4
        assert np.array_equal(labels, np.arange(4))

    def test_orbit_ids_increase_with_smallest_member(self):
        # swap (0 3) and swap (1 2): orbits {0,3} and {1,2}
        perm = np.array([3, 2, 1, 0])
        labels, orbits = permutation_orbits(4, [perm])
        assert [o.tolist() for o in orbits] == [[0, 3], [1, 2]]
        assert labels.tolist() == [0, 1, 1, 0]

    def test_two_generators_merge_orbits(self):
        a = np.array([1, 0, 2, 3])
        b = np.array([0, 2, 1, 3])
        labels, orbits = permutation_orbits(4, [a, b])
        assert [o.tolist() for o in orbits] == [[0, 1, 2], [3]]


def first_audit_element(ring, seed):
    rng = np.random.default_rng(seed)
    return tuple(int(rng.integers(0, s)) for s in ring.sizes)


def failing_audit(real, generators):
    """``real`` for the closure's generator calls, then the real permutation
    shifted by one place, which moves index 0 (a singleton orbit: the
    identity, or the trivial character) onto another orbit."""
    calls = []

    def fake(*args):
        calls.append(args)
        perm = real(*args)
        return perm if len(calls) <= generators else np.roll(perm, 1)
    return fake


class TestClosureWithAudit:
    def test_generators_then_audits_in_seeded_order(self, h3):
        seen = []

        def perm_for(g):
            seen.append(g)
            return np.arange(5)
        closure_with_audit(h3, 5, perm_for, "{g}", seed=4, audits=3)
        assert seen[:6] == [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0),
                            (0, 0, 1), (0, 0, 2)]
        rng = np.random.default_rng(4)
        assert seen[6:] == [tuple(int(rng.integers(0, s)) for s in h3.sizes)
                            for _ in range(3)]

    def test_orbits_of_synthetic_generators(self, h3):
        swap = np.array([1, 0, 2, 3, 4, 5])

        def perm_for(g):
            return swap if g in ((1, 0, 0), (2, 0, 0)) else np.arange(6)
        labels, orbits = closure_with_audit(h3, 6, perm_for, "{g}", seed=0,
                                            audits=10)
        assert [o.tolist() for o in orbits] == [[0, 1], [2], [3], [4], [5]]
        assert labels.tolist() == [0, 0, 1, 2, 3, 4]

    def test_failed_audit_raises_with_witness(self, h3):
        perm_for = failing_audit(lambda g: np.arange(3), 6)
        with pytest.raises(StabilityCheckFailed) as info:
            closure_with_audit(h3, 3, perm_for, "moved by {g}", seed=2,
                               audits=5)
        assert str(info.value) == f"moved by {first_audit_element(h3, 2)}"

    def test_conjugacy_classes_witness(self, h3_group, monkeypatch):
        monkeypatch.setattr(oracle, "_conjugation_perm", failing_audit(
            oracle._conjugation_perm, 6))
        with pytest.raises(StabilityCheckFailed) as info:
            conjugacy_classes(h3_group, seed=1)
        g = first_audit_element(h3_group.ring, 1)
        assert str(info.value) == \
            f"conjugation by {g} moves elements across classes"

    def test_coadjoint_orbits_witness(self, h3, monkeypatch):
        monkeypatch.setattr(orbitmethod, "_dual_permutation", failing_audit(
            orbitmethod._dual_permutation, 6))
        with pytest.raises(StabilityCheckFailed) as info:
            orbitmethod.coadjoint_orbits(h3, seed=1)
        g = first_audit_element(h3, 1)
        assert str(info.value) == f"Ad*(e^{g}) moves characters across orbits"

    def test_p2_orbit_partition_witness(self, abelian_z4sq, monkeypatch):
        monkeypatch.setattr(orbitmethod, "_dual_permutation", failing_audit(
            orbitmethod._dual_permutation, 4))
        with pytest.raises(StabilityCheckFailed) as info:
            orbitmethod.p2_orbit_partition(abelian_z4sq, seed=1)
        g = first_audit_element(abelian_z4sq, 1)
        assert str(info.value) == \
            f"Ad*(e^{g}) moves (2g)* characters across orbits"


class TestConjugacyClasses:
    def test_heisenberg_f3_partition(self, h3_group):
        part = conjugacy_classes(h3_group)
        assert len(part) == 11
        assert Counter(part.sizes.tolist()) == {1: 3, 3: 8}
        assert part.sizes.sum() == 27

    def test_identity_class_is_first_singleton(self, h3_group):
        part = conjugacy_classes(h3_group)
        zero = h3_group.index_of((0, 0, 0))
        assert part.class_of(zero) == 0
        assert part.reps[0] == zero
        assert part.sizes[0] == 1

    def test_center_gives_singletons(self, h3_group):
        part = conjugacy_classes(h3_group)
        for c in range(3):
            assert part.class_of(h3_group.index_of((0, 0, c))) >= 0
            assert part.sizes[part.class_of(h3_group.index_of((0, 0, c)))] \
                == 1

    def test_labels_match_classes(self, h5_group):
        part = conjugacy_classes(h5_group)
        for oid, members in enumerate(part.classes):
            assert np.array_equal(part.labels[members],
                                  np.full(len(members), oid))

    def test_heisenberg_z9_count(self, z9_group):
        part = conjugacy_classes(z9_group)
        assert len(part) == 105
        assert part.sizes.sum() == 729

    def test_order_cap(self, h3_group):
        with pytest.raises(ValueError):
            conjugacy_classes(h3_group, cap=10)


class TestCharacterTable:
    def test_heisenberg_f3_degrees(self, h3_group):
        table = character_table(h3_group)
        assert Counter(table.degrees.tolist()) == {1: 9, 3: 2}
        assert int((table.degrees ** 2).sum()) == 27

    def test_heisenberg_f5_degrees(self, h5_group):
        table = character_table(h5_group)
        assert Counter(table.degrees.tolist()) == {1: 25, 5: 4}
        assert int((table.degrees ** 2).sum()) == 125

    def test_heisenberg_z9_degrees(self, z9_group):
        table = character_table(z9_group)
        assert Counter(table.degrees.tolist()) == {1: 81, 3: 18, 9: 6}
        assert int((table.degrees ** 2).sum()) == 729

    def test_trivial_character_present(self, h3_group):
        table = character_table(h3_group)
        flat = np.abs(table.rows - 1.0).max(axis=1)
        assert (flat < 1e-8).sum() == 1

    def test_row_orthogonality(self, h3_group):
        table = character_table(h3_group)
        sizes = table.class_sizes.astype(np.float64)
        gram = (table.rows * sizes[None, :]) @ table.rows.conj().T / 27
        assert np.max(np.abs(gram - np.eye(len(table)))) < 1e-9

    def test_column_orthogonality(self, h3_group):
        table = character_table(h3_group)
        sizes = table.class_sizes.astype(np.float64)
        gram = table.rows.T @ table.rows.conj()
        assert np.max(np.abs(gram - np.diag(27 / sizes))) < 1e-8

    def test_deterministic_for_fixed_seed(self, h3_group):
        t1 = character_table(h3_group, seed=3)
        t2 = character_table(h3_group, seed=3)
        assert np.array_equal(t1.rows, t2.rows)
        assert np.array_equal(t1.degrees, t2.degrees)

    def test_seeds_agree_up_to_nothing(self, h3_group):
        # the sort key makes the table canonical, not just seed-stable
        t1 = character_table(h3_group, seed=0)
        t2 = character_table(h3_group, seed=12345)
        assert np.allclose(t1.rows, t2.rows, atol=1e-8)

    def test_first_column_is_degrees(self, z9_group):
        table = character_table(z9_group)
        assert np.allclose(table.rows[:, 0], table.degrees, atol=1e-8)


class TestMatchTables:
    def test_table_matches_itself(self, h3_group):
        table = character_table(h3_group)
        report = match_tables(full_functions(table), table)
        assert report.assignment == tuple(range(len(table)))
        assert report.max_deviation < 1e-10

    def test_shuffled_candidates_recover_assignment(self, h3_group):
        table = character_table(h3_group)
        funcs = full_functions(table)
        rng = np.random.default_rng(4)
        order = rng.permutation(len(funcs))
        report = match_tables([funcs[i] for i in order], table)
        assert report.assignment == tuple(int(i) for i in order)

    def test_corrupted_candidate_fails(self, h3_group):
        table = character_table(h3_group)
        funcs = full_functions(table)
        funcs[5] = ClassFunction(h3_group, funcs[5].values * 2.0)
        with pytest.raises(NoMatching):
            match_tables(funcs, table)

    def test_wrong_count_fails(self, h3_group):
        table = character_table(h3_group)
        with pytest.raises(NoMatching):
            match_tables(full_functions(table)[:-1], table)

    def test_unreadable_candidate_rejected(self, h3_group):
        table = character_table(h3_group)
        with pytest.raises(TypeError):
            match_tables([object()] * len(table), table)


class TestRestrictionMultiplicity:
    def test_degree_three_character_restricts_to_one_line(self, h3, h3_group):
        # chi|_Z = 3 * (a single central character) for the faithful chi
        table = character_table(h3_group)
        funcs = full_functions(table)
        sub = Subring(h3, [(0, 0, 1)])
        central = [DualCharacter(sub.induced, (j,)).as_function()
                   for j in range(3)]
        i = int(np.argmax(table.degrees))
        assert table.degrees[i] == 3
        mults = [restriction_multiplicity(h3_group, sub, funcs[i], psi)
                 for psi in central]
        rounded = sorted(round(abs(m)) for m in mults)
        assert rounded == [0, 0, 3]
        assert all(abs(m - round(m.real)) < 1e-9 for m in mults)

    def test_linear_characters_restrict_trivially(self, h3, h3_group):
        # every linear character kills [G, G] = Z, so only psi = 1 survives
        table = character_table(h3_group)
        funcs = full_functions(table)
        sub = Subring(h3, [(0, 0, 1)])
        trivial = DualCharacter(sub.induced, (0,)).as_function()
        for i in range(len(table)):
            if table.degrees[i] != 1:
                continue
            m = restriction_multiplicity(h3_group, sub, funcs[i], trivial)
            assert abs(m - 1) < 1e-9

    def test_multiplicities_sum_to_degree(self, h3, h3_group):
        table = character_table(h3_group)
        funcs = full_functions(table)
        sub = Subring(h3, [(0, 0, 1)])
        central = [DualCharacter(sub.induced, (j,)).as_function()
                   for j in range(3)]
        for i in (0, int(np.argmax(table.degrees))):
            total = sum(restriction_multiplicity(h3_group, sub, funcs[i],
                                                 psi).real
                        for psi in central)
            assert abs(total - table.degrees[i]) < 1e-8

    def test_ring_domain_ambient_character_rejected(self, h3, h3_group):
        sub = Subring(h3, [(0, 0, 1)])
        chi_g = ClassFunction(h3, np.ones(27))
        psi = DualCharacter(sub.induced, (0,)).as_function()
        with pytest.raises(DomainMismatch):
            restriction_multiplicity(h3_group, sub, chi_g, psi)

    def test_foreign_subring_character_rejected(self, h3, h3_group):
        sub = Subring(h3, [(0, 0, 1)])
        chi_g = ClassFunction(h3_group, np.ones(27))
        psi = DualCharacter(h3, (0, 0, 0)).as_function()
        with pytest.raises(DomainMismatch):
            restriction_multiplicity(h3_group, sub, chi_g, psi)
