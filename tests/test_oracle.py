"""Brute-force character theory: classes, Burnside tables, matching."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from orbitkit import oracle, orbitmethod
from orbitkit.cli import load_ring_spec
from orbitkit.errors import (DegenerateSpectrum, DomainMismatch, NoMatching,
                             StabilityCheckFailed, ValidationFailed)
from orbitkit.harmonic import ClassFunction, DualCharacter
from orbitkit.liering import LazardGroup, Subring
from orbitkit.oracle import (character_table, class_matrix,
                             closure_with_audit, conjugacy_classes,
                             match_tables, permutation_orbits,
                             restriction_multiplicity)

from test_orbitmethod import small_rings

SPECS = Path(__file__).resolve().parent.parent / "specs"


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


def bfs_orbits(n, perms):
    """The per-start breadth-first closure that the label fixpoint
    replaced, kept as its reference."""
    labels = np.full(n, -1, dtype=np.int64)
    orbits = []
    for start in range(n):
        if labels[start] >= 0:
            continue
        oid = len(orbits)
        labels[start] = oid
        chunks = [np.array([start], dtype=np.int64)]
        frontier = chunks[0]
        while frontier.size and perms:
            nxt = np.unique(np.concatenate([perm[frontier] for perm in perms]))
            fresh = nxt[labels[nxt] < 0]
            labels[fresh] = oid
            chunks.append(fresh)
            frontier = fresh
        orbits.append(np.sort(np.concatenate(chunks)))
    return labels, orbits


def closures_match_bfs(monkeypatch, ring):
    """Run the class and coadjoint closures of a ring, and compare every
    permutation_orbits call they make with the breadth-first reference."""
    calls = []
    real = oracle.permutation_orbits

    def spy(n, perms):
        out = real(n, perms)
        calls.append((n, perms, out))
        return out
    monkeypatch.setattr(oracle, "permutation_orbits", spy)
    conjugacy_classes(LazardGroup(ring))
    orbitmethod.coadjoint_orbits(ring)
    assert len(calls) == 2
    for n, perms, (labels, orbits) in calls:
        want_labels, want_orbits = bfs_orbits(n, perms)
        assert labels.dtype == want_labels.dtype
        assert np.array_equal(labels, want_labels)
        assert len(orbits) == len(want_orbits)
        for got, want in zip(orbits, want_orbits):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def spec_paths():
    return [pytest.param(path, id=path.stem)
            for path in sorted(SPECS.glob("*.json"))
            if "moduli" in json.loads(path.read_text())]


class TestLabelFixpoint:
    @pytest.mark.parametrize("path", spec_paths())
    def test_specs_match_the_bfs(self, path, monkeypatch):
        closures_match_bfs(monkeypatch, load_ring_spec(path))

    @given(ring=small_rings())
    def test_drawn_rings_match_the_bfs(self, ring):
        with pytest.MonkeyPatch.context() as monkeypatch:
            closures_match_bfs(monkeypatch, ring)

    def test_random_permutations_match_the_bfs(self):
        # long cycles and many generators, beyond what rings produce
        rng = np.random.default_rng(3)
        for n, k in ((1, 1), (2, 0), (50, 1), (200, 3), (1000, 2)):
            perms = [rng.permutation(n) for _ in range(k)]
            labels, orbits = permutation_orbits(n, perms)
            want_labels, want_orbits = bfs_orbits(n, perms)
            assert np.array_equal(labels, want_labels)
            assert [o.tolist() for o in orbits] == \
                [o.tolist() for o in want_orbits]


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

    def test_conjugacy_classes_witness(self, h3, monkeypatch):
        # a fresh group: a partition kept on a shared one skips the audit
        monkeypatch.setattr(oracle, "_conjugation_perm", failing_audit(
            oracle._conjugation_perm, 6))
        with pytest.raises(StabilityCheckFailed) as info:
            conjugacy_classes(LazardGroup(h3), seed=1)
        g = first_audit_element(h3, 1)
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

    def test_partition_is_kept_per_group_and_key(self, h3, monkeypatch):
        keys = []
        real = oracle._audited_classes

        def spy(group, seed, audits):
            keys.append((seed, audits))
            return real(group, seed, audits)
        monkeypatch.setattr(oracle, "_audited_classes", spy)
        group = LazardGroup(h3)
        part = conjugacy_classes(group)
        assert conjugacy_classes(group) is part
        assert character_table(group).partition is part
        assert conjugacy_classes(group, seed=1) is not part
        assert conjugacy_classes(group, audits=3) is not part
        assert conjugacy_classes(LazardGroup(h3)) is not part
        assert keys == [(0, 50), (1, 50), (0, 3), (0, 50)]
        assert sorted(group.partitions) == [(0, 3), (0, 50), (1, 50)]
        with pytest.raises(ValueError):
            conjugacy_classes(group, cap=10)

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


# -- the prefix split against the full sum --------------------------------------

def full_sum_table(group, *, seed=0, retries=8, gap=1e-6, tol=1e-8):
    """The character table as it stood before the prefix split: every class
    matrix summed for every retry up front, one eig per retry, rows sorted
    by an eager key.  Returns (rows, degrees, class sizes, attempt).  The
    sums run as one product per block of 16 classes."""
    part = conjugacy_classes(group, seed=seed)
    r, n = len(part), len(group)
    sizes = part.sizes.astype(np.float64)
    weights = np.random.default_rng(seed).standard_normal((retries, r))
    combined = np.zeros((retries, r * r))
    for lo in range(0, r, 16):
        block = np.array([class_matrix(group, part, a).ravel()
                          for a in range(lo, min(lo + 16, r))])
        combined += weights[:, lo:lo + 16] @ block
    combined = combined.reshape(retries, r, r)
    identity_class = part.class_of(group.index_of(group.ring.zero()))
    for attempt in range(retries):
        vals, vecs = np.linalg.eig(combined[attempt])
        dist = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(dist, np.inf)
        if dist.min() < gap:
            continue
        at_identity = vecs[identity_class, :]
        if np.min(np.abs(at_identity)) < 1e-12:
            continue
        omega = vecs / at_identity[None, :]
        norms = (np.abs(omega) ** 2 / sizes[:, None]).sum(axis=0)
        degrees = np.sqrt(n / norms)
        rounded = np.rint(degrees)
        if np.max(np.abs(degrees - rounded)) > 1e-6:
            raise ValidationFailed("degrees are not integers")
        rows = (rounded[None, :] * omega / sizes[:, None]).T
        row_orth = (rows * sizes[None, :]) @ rows.conj().T / n
        col_orth = rows.T @ rows.conj()
        target = np.diag(n / sizes)
        if (np.max(np.abs(row_orth - np.eye(r))) > tol
                or np.max(np.abs(col_orth - target)
                          / np.maximum(1.0, np.abs(target))) > tol):
            raise ValidationFailed("orthogonality")
        key = eager_order(rounded, rows)
        return rows[key], rounded[key].astype(np.int64), part.sizes, attempt
    raise DegenerateSpectrum("full sum never separates")


def eager_order(degrees, rows):
    """By degree, then (re, im) rounded to 8 decimals column by column, as
    ``round`` rounds numpy scalars (that is, as np.round does)."""
    re, im = np.round(rows.real, 8).tolist(), np.round(rows.imag, 8).tolist()
    return sorted(range(len(rows)), key=lambda i: (
        degrees[i], tuple(zip(re[i], im[i]))))


def assert_same_table(table, seed=0):
    rows, degrees, sizes, _ = full_sum_table(table.group, seed=seed)
    assert np.array_equal(table.degrees, degrees)
    assert np.array_equal(table.class_sizes, sizes)
    assert eager_order(table.degrees, table.rows) == list(range(len(rows)))
    assert np.max(np.abs(table.rows - rows)) < 1e-9


def ring_specs():
    for path in sorted(SPECS.glob("*.json")):
        if "moduli" not in json.loads(path.read_text()):
            continue
        for seed in (0, 1) if path.stem != "u4_f5" else (0,):
            yield pytest.param(path, seed, id=f"{path.stem}-seed{seed}")


def counting_eig(monkeypatch, forge=None):
    """Count the oracle's eig calls; ``forge`` may replace their result."""
    calls = []
    real = np.linalg.eig

    def eig(a):
        calls.append(a.copy())
        out = real(a)
        return out if forge is None else forge(out)
    monkeypatch.setattr(np.linalg, "eig", eig)
    return calls


class TestPrefixSplit:
    @pytest.mark.parametrize("path, seed", list(ring_specs()))
    def test_specs_match_the_full_sum(self, path, seed):
        group = LazardGroup(load_ring_spec(path))
        assert_same_table(character_table(group, seed=seed), seed)

    @given(ring=small_rings())
    def test_drawn_rings_match_the_full_sum(self, ring):
        assert_same_table(character_table(LazardGroup(ring)))

    def test_attempts_count_eig_calls(self, z9_group, monkeypatch):
        calls = counting_eig(monkeypatch)
        table = character_table(z9_group)
        assert table.attempts + 1 == len(calls) > 1
        # the prefix doubles from 8 classes, smallest classes first
        part = table.partition
        order = np.argsort(part.sizes, kind="stable")
        weights = np.random.default_rng(0).standard_normal((8, len(part)))[0]
        for k, combined in enumerate(calls):
            prefix = order[:min(8 << k, len(part))]
            expected = sum(weights[a] * class_matrix(z9_group, part, a)
                           for a in prefix)
            assert np.allclose(combined, expected, rtol=0, atol=1e-9)

    def test_retry_only_after_the_full_sum_fails(self, h3_group, monkeypatch):
        # a gap no spectrum reaches: every retry runs every prefix
        calls = counting_eig(monkeypatch)
        with pytest.raises(DegenerateSpectrum) as info:
            character_table(h3_group, gap=1e9, retries=3)
        assert str(info.value) == \
            "eigenvalue gap stayed below 1000000000.0 for 3 retries"
        assert len(calls) == 3 * 2        # prefixes of 8 and 11 classes

    def test_forged_prefix_is_gated_by_orthogonality(self, h3_group,
                                                     monkeypatch):
        # a separated spectrum whose vectors are the central characters
        # with an error that keeps every degree integral
        reference = character_table(h3_group)
        part = reference.partition
        sizes = part.sizes.astype(np.float64)
        omega = (reference.rows * sizes[None, :]
                 / reference.degrees[:, None]).T
        forged = omega.copy()
        forged[:, 1] += 1e-5 * (omega[:, 2] - omega[:, 3])
        r = len(part)
        calls = counting_eig(monkeypatch, lambda out: (
            np.arange(r, dtype=np.complex128), forged))
        with pytest.raises(ValidationFailed, match="orthogonality deviation"):
            character_table(h3_group)
        assert len(calls) == 1
