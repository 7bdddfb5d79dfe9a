"""Brute-force character theory: classes, Burnside tables, matching."""

import json
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings

from orbitkit import harmonic, oracle, orbitmethod
from orbitkit.cli import load_ring_spec
from orbitkit.errors import (AutomorphismCheckFailed, DegenerateSpectrum,
                             DomainMismatch, NoMatching, StabilityCheckFailed,
                             ValidationFailed)
from orbitkit.freelie import bch, vp
from orbitkit.harmonic import ADDITIVE, GROUP, ClassFunction
from orbitkit.liering import FiniteLieRing, LazardGroup, Subring, _poly_terms
from orbitkit.oracle import (character_table, class_matrices,
                             conjugacy_classes, conjugation_certificate,
                             match_tables, permutation_orbits,
                             restriction_multiplicity)
from orbitkit.orbitmethod import coadjoint_orbits, kirillov_character

from conftest import as_function
from test_orbitmethod import small_rings

SPECS = Path(__file__).resolve().parent.parent / "specs"


def full_functions(table):
    """Expand table rows from class representatives to all group elements."""
    dense = table.rows[:, table.partition.labels]
    return [ClassFunction(table.partition.group, row) for row in dense]


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


def dual_permutations(group):
    """The permutation of g* under f -> f o Ad(s) for each certified
    generator s, by the definition: each character's weights times B_s^T,
    divided back down to exponents and indexed on the grid."""
    space = harmonic.DualSpace(group.ring)
    perms = []
    for B in conjugation_certificate(group).matrices:
        moved = (space.weights @ B.T) % group.ring.big
        assert not np.any(moved % space.scale)
        perms.append(group.ring.grid.index_batch(moved // space.scale))
    return perms


def closures_match_bfs(monkeypatch, ring):
    """Run the class and coadjoint closures of a ring on one group, compare
    every permutation_orbits call they make (generation, classes, g*) with
    the breadth-first reference, each g* permutation with its definition
    (``dual_permutations``), and check the certificate they share."""
    calls = []
    real = oracle.permutation_orbits

    def spy(n, perms):
        out = real(n, perms)
        calls.append((n, perms, out))
        return out
    monkeypatch.setattr(oracle, "permutation_orbits", spy)
    monkeypatch.setattr(orbitmethod, "permutation_orbits", spy)
    group = LazardGroup(ring)
    conjugacy_classes(group)
    orbitmethod.coadjoint_orbits(group)
    assert len(calls) == 3
    for n, perms, (labels, orbits) in calls:
        want_labels, want_orbits = bfs_orbits(n, perms)
        assert labels.dtype == want_labels.dtype
        assert np.array_equal(labels, want_labels)
        assert len(orbits) == len(want_orbits)
        for got, want in zip(orbits, want_orbits):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    dual = calls[2][1]
    want = dual_permutations(group)
    assert len(dual) == len(want)
    for got, perm in zip(dual, want):
        assert got.dtype == perm.dtype
        assert np.array_equal(got, perm)
    assert_certificate(group)


def assert_certificate(group):
    """The group's certificate against direct references: a breadth-first
    walk from the identity under right multiplication by the generators
    reaches all of G, conjugation by each generator is x @ B_s mod the
    moduli in one integer product, and B_s is exp(ad e_i) transposed."""
    ring, E = group.ring, group.elements
    cert = conjugation_certificate(group)
    gens = [ring.basis(i) for i in range(ring.rank)]
    right = [ring.grid.index_batch(ring.ch_batch(E, np.array(s)))
             for s in gens]
    assert len(bfs_orbits(len(group), right)[1]) == 1
    assert len(cert.matrices) == ring.rank
    for s, B in zip(gens, cert.matrices):
        assert np.array_equal(B, ring.exp_ad_matrix(s).T)
        assert np.array_equal(group.conjugate_batch(s, E),
                              E @ B % ring._mods)


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


class TestConjugationCertificate:
    def test_generators_are_the_basis_exponentials(self, h3, monkeypatch):
        seen = []

        def spy(name):
            real = getattr(oracle, name)

            def wrapper(group, g):
                seen.append((name, tuple(g)))
                return real(group, g)
            monkeypatch.setattr(oracle, name, wrapper)
        spy("_right_perm")
        spy("_left_perm")
        spy("_conjugation_perm")
        group = LazardGroup(h3)
        assert group.certificate is None
        cert = conjugation_certificate(group)
        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        # one left product per generator; the conjugation permutation is
        # built only for a witness
        assert seen == [("_right_perm", g) for g in basis] + \
            [("_left_perm", g) for g in basis]
        assert group.certificate is cert
        assert conjugation_certificate(group) is cert
        assert orbitmethod.coadjoint_orbits(group)
        assert len(seen) == 6
        # [x, y] = z: conjugation by e^x adds y's coefficient to z's
        assert cert.matrices[0].tolist() == [[1, 0, 0], [0, 1, 1], [0, 0, 1]]

    def test_non_generating_basis_witness(self, h3, monkeypatch):
        # right multiplication by e^x forged to the identity: e^y and e^z
        # generate {e^(b y + c z)}, of order 9
        real = oracle._right_perm

        def forged(group, g):
            if tuple(g) == (1, 0, 0):
                return np.arange(len(group))
            return real(group, g)
        monkeypatch.setattr(oracle, "_right_perm", forged)
        with pytest.raises(StabilityCheckFailed) as info:
            conjugacy_classes(LazardGroup(h3))
        assert str(info.value) == ("the basis exponentials generate a "
                                   "subgroup of order 9, not all 27 "
                                   "elements of G")

    def test_non_linear_conjugation_witness(self, h3, monkeypatch):
        # left multiplication by e^y forged to swap the products of grid
        # indices 5 and 7, so conjugation by e^y swaps their images;
        # neither is a basis vector (indices 9, 3 and 1)
        want = oracle._conjugation_perm(LazardGroup(h3), (0, 1, 0))
        real = oracle._left_perm

        def forged(group, g):
            perm = real(group, g)
            if tuple(g) == (0, 1, 0):
                perm[[5, 7]] = perm[[7, 5]]
            return perm
        monkeypatch.setattr(oracle, "_left_perm", forged)
        with pytest.raises(AutomorphismCheckFailed) as info:
            orbitmethod.coadjoint_orbits(LazardGroup(h3))
        assert str(info.value) == (
            f"conjugation by e^(0, 1, 0) is not linear: grid index 5 goes "
            f"to {want[7]}, x B_s to {want[5]}")

    def test_adjoint_mismatch_witness(self, abelian_z4sq, monkeypatch):
        # exp(ad e_0) forged to move e_1 to e_0 + e_1; conjugation in the
        # abelian group fixes e_1
        real = FiniteLieRing.exp_ad_matrix

        def forged(ring, w):
            m = real(ring, w)
            if ring is abelian_z4sq and tuple(w) == (1, 0):
                m[0, 1] += 1
            return m
        monkeypatch.setattr(FiniteLieRing, "exp_ad_matrix", forged)
        with pytest.raises(AutomorphismCheckFailed) as info:
            orbitmethod.p2_convolution_check(LazardGroup(abelian_z4sq))
        assert str(info.value) == ("conjugation by e^(1, 0) maps e_1 to "
                                   "(0, 1), exp(ad (1, 0)) to (1, 1)")


class TestConjugacyClasses:
    def test_heisenberg_f3_partition(self, h3_group):
        part = conjugacy_classes(h3_group)
        assert len(part) == 11
        assert Counter(part.sizes.tolist()) == {1: 3, 3: 8}
        assert part.sizes.sum() == 27

    def test_identity_class_is_first_singleton(self, h3_group):
        part = conjugacy_classes(h3_group)
        zero = h3_group.ring.grid.index_batch((0, 0, 0))
        assert part.labels[zero] == 0
        assert part.reps[0] == zero
        assert part.sizes[0] == 1

    def test_center_gives_singletons(self, h3_group):
        part = conjugacy_classes(h3_group)
        for c in range(3):
            z = h3_group.ring.grid.index_batch((0, 0, c))
            assert part.labels[z] >= 0
            assert part.sizes[part.labels[z]] == 1

    def test_labels_match_classes(self, h5_group):
        part = conjugacy_classes(h5_group)
        for oid, members in enumerate(part.classes):
            assert np.array_equal(part.labels[members],
                                  np.full(len(members), oid))

    def test_heisenberg_z9_count(self, z9_group):
        part = conjugacy_classes(z9_group)
        assert len(part) == 105
        assert part.sizes.sum() == 729

    def test_partition_is_kept_per_group(self, h3, monkeypatch):
        groups = []
        real = oracle._certify

        def spy(group):
            groups.append(group)
            return real(group)
        monkeypatch.setattr(oracle, "_certify", spy)
        group = LazardGroup(h3)
        part = conjugacy_classes(group)
        assert conjugacy_classes(group) is part
        assert character_table(group).partition is part
        assert group.certificate is part
        orbitmethod.coadjoint_orbits(group)
        assert conjugacy_classes(LazardGroup(h3)) is not part
        assert len(groups) == 2 and groups[0] is group
        monkeypatch.setattr(oracle, "ORDER_CAP", 10)
        with pytest.raises(ValueError):
            conjugacy_classes(group)

    def test_order_cap(self, h3_group, monkeypatch):
        monkeypatch.setattr(oracle, "ORDER_CAP", 10)
        with pytest.raises(ValueError):
            conjugacy_classes(h3_group)


def bincount_class_matrix(part, a, law):
    """Burnside's class matrix M_a built for the class a alone: one
    translation call for the members of C_a, one bincount of the labels."""
    r = len(part)
    b = part.labels[harmonic.translates(part.group, law, part.classes[a],
                                        part.reps)]
    flat = b * r + np.arange(r, dtype=np.int64)
    return np.bincount(flat.ravel(), minlength=r * r).reshape(r, r)


def assert_class_matrices(group, classes=None):
    """class_matrices yields every asked class once, in the order asked,
    with the matrix the per-class build gives, under both laws."""
    part = conjugacy_classes(group)
    classes = list(range(len(part))) if classes is None else classes
    for law in (GROUP, ADDITIVE):
        got = list(class_matrices(part, classes, law))
        assert [a for a, _ in got] == classes
        for a, M in got:
            assert np.array_equal(M, bincount_class_matrix(part, a, law))


class TestClassMatrices:
    @pytest.mark.parametrize("path", spec_paths())
    def test_specs(self, path):
        group = LazardGroup(load_ring_spec(path))
        part = conjugacy_classes(group)
        r = len(part)
        if path.stem == "u4_f5":
            # 96 classes of 125 members pair with the 265 representatives
            # in more cells than one block holds
            assert {int(s) * r > harmonic._BLOCK_CELLS
                    for s in part.sizes} == {False, True}
        assert_class_matrices(group)

    @settings(max_examples=8)
    @given(ring=small_rings())
    def test_drawn_rings(self, ring):
        assert_class_matrices(LazardGroup(ring))

    def test_blocks_in_the_order_asked(self, h5_group, monkeypatch):
        # three singletons' cells fill a block; a class of five members
        # overflows it and runs alone, here in a reversed and repeated order
        r = len(conjugacy_classes(h5_group))
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", 3 * r)
        part = conjugacy_classes(h5_group)
        classes = list(range(r))[::-1] + [0, 0, 1]
        runs = list(oracle._class_blocks(part, classes))
        assert [a for run in runs for a in run] == classes
        assert all(sum(part.sizes[run]) * r <= 3 * r or len(run) == 1
                   for run in runs)
        assert any(len(run) == 1 and part.sizes[run[0]] * r > 3 * r
                   for run in runs)
        assert_class_matrices(h5_group, classes)


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
        sizes = table.partition.sizes.astype(np.float64)
        gram = (table.rows * sizes[None, :]) @ table.rows.conj().T / 27
        assert np.max(np.abs(gram - np.eye(len(table)))) < 1e-9

    def test_column_orthogonality(self, h3_group):
        table = character_table(h3_group)
        sizes = table.partition.sizes.astype(np.float64)
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


def kuhn_match(characters, table, tol=1e-8):
    """The reference matching, which assumes nothing about the table:
    every allowed edge, then a Kuhn augmenting search.  Returns
    (assignment, deviations), or raises NoMatching."""
    reps = np.array(table.partition.reps)
    cand = np.array([c.values[reps] for c in characters])
    k, r = len(cand), len(table.rows)
    dev = np.zeros((k, r))
    for i in range(k):
        dev[i] = np.max(np.abs(cand[i][None, :] - table.rows), axis=1)
    allowed = dev < tol
    match_row = [-1] * r

    def augment(i, seen):
        for j in range(r):
            if allowed[i, j] and not seen[j]:
                seen[j] = True
                if match_row[j] < 0 or augment(match_row[j], seen):
                    match_row[j] = i
                    return True
        return False

    matched = sum(augment(i, [False] * r) for i in range(k))
    if matched != k or k != r:
        raise NoMatching(
            f"matched {matched} of {k} candidates against {r} rows")
    assignment = [0] * k
    for j, i in enumerate(match_row):
        assignment[i] = j
    return (tuple(assignment),
            [float(dev[i, assignment[i]]) for i in range(k)])


def assert_same_matching(candidates, table, tol=1e-8):
    """match_tables and the Kuhn search give the same assignment and
    deviations, or the same NoMatching message; returns which."""
    try:
        assignment, deviations = kuhn_match(candidates, table, tol)
    except NoMatching as exc:
        with pytest.raises(NoMatching) as info:
            match_tables(candidates, table, tol)
        assert str(info.value) == str(exc)
        return "refused"
    report = match_tables(candidates, table, tol)
    assert report.assignment == assignment
    assert report.deviations == deviations
    return "matched"


def candidate_lists(table, funcs):
    """Shuffled, truncated, corrupted and duplicated variants of a
    candidate list that matches the table, with the expected outcome."""
    group = table.partition.group
    r = len(funcs)
    order = np.random.default_rng(r).permutation(r).tolist()
    shuffled = [funcs[i] for i in order]
    noisy = [ClassFunction(group, f.values + 1e-10) for f in shuffled]
    doubled = list(shuffled)
    doubled[3] = ClassFunction(group, funcs[order[1]].values * 2.0)
    moved = list(shuffled)
    moved[-1] = ClassFunction(group, moved[-1].values + 0.5)
    return [
        (funcs, "matched"), (shuffled, "matched"), (noisy, "matched"),
        (shuffled[:-1], "refused"), (shuffled[:2] + shuffled[3:], "refused"),
        (doubled, "refused"), (moved, "refused"),
        (shuffled[:2] + [shuffled[0]] + shuffled[3:], "refused"),
        (shuffled + [shuffled[5]], "refused"),
        (shuffled[:-1] + [shuffled[0]], "refused")]


class TestMatchAgainstKuhn:
    """The unique-row assignment against the Kuhn augmenting search."""

    @pytest.mark.parametrize("name", ["h3", "z9"])
    def test_orbit_characters_and_variants(self, name, request):
        group = request.getfixturevalue(f"{name}_group")
        table = character_table(group)
        chars = kirillov_character(group, coadjoint_orbits(group))
        assert assert_same_matching(chars, table) == "matched"
        for tol in (1e-300, 1e-14, 0.69):
            assert_same_matching(chars, table, tol)
        for candidates, outcome in candidate_lists(table, chars):
            assert assert_same_matching(candidates, table) == outcome

    @settings(max_examples=1)
    @given(ring=small_rings())
    def test_drawn_ring(self, ring):
        table = character_table(LazardGroup(ring))
        for candidates, outcome in candidate_lists(table,
                                                   full_functions(table)):
            assert assert_same_matching(candidates, table) == outcome

    def test_tolerance_must_stay_below_the_row_gap(self, h3_group):
        table = character_table(h3_group)
        funcs = full_functions(table)
        assert match_tables(funcs, table, tol=0.69).assignment \
            == tuple(range(len(table)))
        for tol in (0.7, 1.0, float("nan")):
            with pytest.raises(ValueError, match="is not below 0.7"):
                match_tables(funcs, table, tol=tol)


class TestRestrictionMultiplicity:
    def test_degree_three_character_restricts_to_one_line(self, h3, h3_group):
        # chi|_Z = 3 * (a single central character) for the faithful chi
        table = character_table(h3_group)
        funcs = full_functions(table)
        sub = Subring(h3, [(0, 0, 1)])
        central = [as_function(sub.induced, (j,))
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
        trivial = as_function(sub.induced, (0,))
        for i in range(len(table)):
            if table.degrees[i] != 1:
                continue
            m = restriction_multiplicity(h3_group, sub, funcs[i], trivial)
            assert abs(m - 1) < 1e-9

    def test_multiplicities_sum_to_degree(self, h3, h3_group):
        table = character_table(h3_group)
        funcs = full_functions(table)
        sub = Subring(h3, [(0, 0, 1)])
        central = [as_function(sub.induced, (j,))
                   for j in range(3)]
        for i in (0, int(np.argmax(table.degrees))):
            total = sum(restriction_multiplicity(h3_group, sub, funcs[i],
                                                 psi).real
                        for psi in central)
            assert abs(total - table.degrees[i]) < 1e-8

    def test_ring_domain_ambient_character_rejected(self, h3, h3_group):
        sub = Subring(h3, [(0, 0, 1)])
        chi_g = ClassFunction(h3, np.ones(27))
        psi = as_function(sub.induced, (0,))
        with pytest.raises(DomainMismatch):
            restriction_multiplicity(h3_group, sub, chi_g, psi)

    def test_foreign_subring_character_rejected(self, h3, h3_group):
        sub = Subring(h3, [(0, 0, 1)])
        chi_g = ClassFunction(h3_group, np.ones(27))
        psi = as_function(h3, (0, 0, 0))
        with pytest.raises(DomainMismatch):
            restriction_multiplicity(h3_group, sub, chi_g, psi)


# -- the prefix split against the full sum --------------------------------------

def full_sum_table(group, *, seed=0, retries=8, gap=1e-6, tol=1e-8):
    """The character table as it stood before the prefix split: every class
    matrix summed for every retry up front, one eig per retry, rows sorted
    by an eager key.  Returns (rows, degrees, class sizes, attempt).  The
    sums run as one product per block of 16 classes."""
    part = conjugacy_classes(group)
    r, n = len(part), len(group)
    sizes = part.sizes.astype(np.float64)
    weights = np.random.default_rng(seed).standard_normal((retries, r))
    combined = np.zeros((retries, r * r))
    for lo in range(0, r, 16):
        block = np.array([M.ravel() for _, M in
                          class_matrices(part, range(lo, min(lo + 16, r)))])
        combined += weights[:, lo:lo + 16] @ block
    combined = combined.reshape(retries, r, r)
    identity_class = part.labels[
        group.ring.grid.index_batch(group.ring.zero())]
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
    rows, degrees, sizes, _ = full_sum_table(table.partition.group,
                                             seed=seed)
    assert np.array_equal(table.degrees, degrees)
    assert np.array_equal(table.partition.sizes, sizes)
    assert eager_order(table.degrees, table.rows) == list(range(len(rows)))
    assert np.max(np.abs(table.rows - rows)) < 1e-9


def ring_specs():
    for path in sorted(SPECS.glob("*.json")):
        if "moduli" not in json.loads(path.read_text()):
            continue
        for seed in (0, 1):
            yield pytest.param(path, seed, id=f"{path.stem}-seed{seed}")


def counting(monkeypatch, name, log=None, forge=None):
    """Record the oracle's calls of ``np.linalg.<name>`` as (name, copy of
    the argument) in ``log``; ``forge`` may replace their result."""
    log = [] if log is None else log
    real = getattr(np.linalg, name)

    def spy(a):
        log.append((name, a.copy()))
        out = real(a)
        return out if forge is None else forge(out)
    monkeypatch.setattr(np.linalg, name, spy)
    return log


def inverse_classes(group, part):
    """a* for every class a, through the group's own index of -z_a."""
    return [int(part.labels[group.ring.grid.index_batch(
                tuple(-x for x in group.elements[z]))])
            for z in part.reps]


def assert_burnside_relation(group):
    """|C_c| M_a[b, c] = |C_b| M_{a*}[c, b] in integers, for every a, on
    the group's one class partition: the certificate itself, with the
    identity alone in class 0 and a -> a* a size-keeping involution."""
    part = conjugacy_classes(group)
    assert conjugation_certificate(group) is part is group.certificate
    assert part.labels[group.ring.grid.index_batch(group.ring.zero())] == 0
    assert part.sizes[0] == 1
    star = inverse_classes(group, part)
    assert np.array_equal(part.inverse, star)
    assert np.array_equal(part.inverse[part.inverse], np.arange(len(part)))
    assert np.array_equal(part.sizes[part.inverse], part.sizes)
    sizes = part.sizes
    matrices = [M for _, M in class_matrices(part, range(len(part)))]
    for a, M in enumerate(matrices):
        assert np.array_equal(M * sizes[None, :],
                              matrices[star[a]].T * sizes[:, None])


def every_prefix(part, plan, weights, gap, log):
    """The central-character loop as it stood before the Frattini
    certificate: the sum grows over the same stages and blocks, and
    ``_split`` runs at every stage.  ``log`` gets (prefix, separated,
    the symmetric matrix ``_split`` diagonalizes) per tested stage."""
    r = len(part)
    root = np.sqrt(part.sizes.astype(np.float64))
    star = part.inverse
    order = [a for a in np.argsort(part.sizes, kind="stable").tolist()
             if a <= star[a]]
    pair_weights = np.stack(
        [weights, np.where(star != np.arange(r), weights[star], 0.0)])
    step = max(1, oracle._BLOCK_CELLS // r)
    cells = np.arange(r, dtype=np.int64)
    sums = np.zeros(2 * r * r)
    used = tests = 0
    while used < len(order):
        prefix = min(max(2 * used, 8), len(order))
        added = order[used:prefix]
        rows = np.concatenate([part.classes[a] for a in added])
        row_weights = np.repeat(pair_weights[:, added], part.sizes[added],
                                axis=1)
        for lo in range(0, len(rows), step):
            block = slice(lo, lo + step)
            b = part.labels[oracle.translates(part.group, oracle.GROUP,
                                              rows[block], part.reps)]
            flat = (b * r + cells).ravel()
            sums += np.bincount(
                np.concatenate([flat, flat + r * r]),
                np.repeat(row_weights[:, block], r, axis=1).ravel(),
                minlength=2 * r * r)
        used = prefix
        A, B = sums.reshape(2, r, r) * root / root[:, None]
        N = A + B.T
        u = oracle._split(N, gap)
        log.append((prefix, u is not None, N + N.T))
        tests += 1
        if u is None:
            continue
        omega = root[:, None] * u
        at_identity = omega[0, :]
        if np.min(np.abs(at_identity)) < 1e-12:
            continue
        return omega / at_identity[None, :], tests
    return None, tests


def every_prefix_table(group, seed=0, log=None):
    """character_table with every prefix tested (``every_prefix``)."""
    log = [] if log is None else log

    def loop(part, plan, weights, gap):
        return every_prefix(part, plan, weights, gap, log)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_central_characters", loop)
        return character_table(group, seed=seed)


def assert_bitwise_table(table, reference):
    assert table.rows.tobytes() == reference.rows.tobytes()
    assert table.degrees.tobytes() == reference.degrees.tobytes()
    assert np.array_equal(table.partition.sizes, reference.partition.sizes)


def generated_subgroup_is_g(group, elements):
    """Does the subgroup the given grid indices generate fill G?  It is the
    orbit of the identity under right multiplication by them."""
    E = group.elements
    right = group.ring.grid.index_batch(group.ring.ch_batch(
        E[:, None], E[np.asarray(elements)][None])).T
    labels, _ = permutation_orbits(len(group), list(right))
    identity = group.ring.grid.index_batch(group.ring.zero())
    return bool(np.all(labels == labels[identity]))


def assert_ch_terms_in_frattini(ring):
    """The certificate's hypothesis (``oracle._prefix_plan``): every CH term
    of degree d >= 2 up to the truncation is q times a bracket, and the
    p-adic valuation a of q's denominator is 0 below class p, and less
    than t(d - 1) in the uniform regime, t = 1, or 2 at p = 2, the least
    valuation ``make_ring`` admits for the lifted constants."""
    series = bch(ring.ch_truncation)
    t = 1 if ring.p >= 3 else 2
    for d in range(2, ring.ch_truncation + 1):
        for _, q in _poly_terms(series.component(d)):
            a = max(0, -vp(q, ring.p))
            assert a < t * (d - 1) if ring.uniform else a == 0


class TestFrattiniCertificate:
    """A stage whose classes lie in a proper subgroup is summed, not tested;
    the table is the one testing every stage gives, bit for bit."""

    @staticmethod
    def check_criterion(group):
        assert_ch_terms_in_frattini(group.ring)
        part = conjugacy_classes(group)
        order, first = oracle._prefix_plan(part)
        log = []
        table = character_table(group)
        assert_bitwise_table(table, every_prefix_table(group, 0, log))
        stages = [prefix for _, prefix in oracle._stages(len(order))]
        assert first in stages
        for prefix in stages:
            members = np.concatenate([part.classes[a] for a in order[:prefix]])
            assert generated_subgroup_is_g(group, members) == (prefix >= first)
        # every skipped stage failed the split in the reference
        assert all(not separated for prefix, separated, _ in log
                   if prefix < first)
        skipped = sum(prefix < first for prefix, _, _ in log)
        assert table.attempts == len(log) - 1 - skipped
        return skipped

    @staticmethod
    def drawn(ring):
        group = LazardGroup(ring)
        assume(len(conjugacy_classes(group)) <= oracle.CLASS_CAP)
        return group

    @settings(max_examples=20)
    @given(ring=small_rings())
    def test_criterion_on_drawn_rings(self, ring):
        self.check_criterion(self.drawn(ring))

    @settings(max_examples=10)
    @given(ring=small_rings().filter(lambda ring: ring.p == 2))
    def test_criterion_on_drawn_p2_rings(self, ring):
        assert ring.uniform
        self.check_criterion(self.drawn(ring))

    @pytest.mark.parametrize("name, skipped", [
        ("h3_group", 0), ("z9_group", 2), ("rank3_z8_group", 4)])
    def test_criterion_on_fixtures(self, name, skipped, request):
        group = request.getfixturevalue(name)
        assert self.check_criterion(group) == skipped

    @pytest.mark.parametrize("name", ["h5_group", "z9_group", "rank3_z8_group"])
    def test_criterion_with_the_largest_classes_first(self, name, request):
        # the proof does not use the size order; largest first, the first
        # stages hold noncentral classes whose smallest members miss
        # [L, L], so the stage spans only with the brackets' rows
        group = request.getfixturevalue(name)
        part = conjugacy_classes(group)
        reversed_sizes = SimpleNamespace(
            group=group, inverse=part.inverse, labels=part.labels,
            reps=part.reps, classes=part.classes,
            sizes=part.sizes.max() + 1 - part.sizes)
        order, first = oracle._prefix_plan(reversed_sizes)
        for _, prefix in oracle._stages(len(order)):
            members = np.concatenate([part.classes[a] for a in order[:prefix]])
            assert generated_subgroup_is_g(group, members) == (prefix >= first)
        assert 0 < first < len(order)

    @pytest.mark.parametrize("path", spec_paths())
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_specs_match_every_prefix(self, path, seed):
        group = LazardGroup(load_ring_spec(path))
        table = character_table(group, seed=seed)
        assert_bitwise_table(table, every_prefix_table(group, seed))
        assert table.attempts == 0

    @pytest.mark.parametrize("name", ["u4_f5", "rank3_z8_p2",
                                      "heisenberg_z9"])
    def test_one_eigh_per_table(self, name, monkeypatch):
        group = LazardGroup(load_ring_spec(SPECS / f"{name}.json"))
        calls = counting(monkeypatch, "eigh")
        assert character_table(group).attempts == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("path", spec_paths())
    def test_ch_terms_lie_in_the_frattini_subgroup(self, path):
        assert_ch_terms_in_frattini(load_ring_spec(path))


class TestPrefixSplit:
    @pytest.mark.parametrize("path, seed", list(ring_specs()))
    def test_specs_match_the_full_sum(self, path, seed):
        group = LazardGroup(load_ring_spec(path))
        assert_same_table(character_table(group, seed=seed), seed)

    @given(ring=small_rings())
    def test_drawn_rings_match_the_full_sum(self, ring):
        assert_same_table(character_table(LazardGroup(ring)))

    @pytest.mark.parametrize("path", spec_paths())
    def test_burnside_relation_on_the_specs(self, path):
        assert_burnside_relation(LazardGroup(load_ring_spec(path)))

    @given(ring=small_rings())
    def test_burnside_relation_on_drawn_rings(self, ring):
        assert_burnside_relation(LazardGroup(ring))

    def test_attempts_count_eigh_calls(self, z9_group, monkeypatch):
        # the prefix doubles from 8 classes, smallest first, one of each
        # inverse pair; the classes of the prefixes 8 and 16 lie in a
        # proper subgroup, so the one eigh comes at 32, on the matrix the
        # every-prefix reference tests there
        reference = []
        every_prefix_table(z9_group, 0, reference)
        assert [(prefix, split) for prefix, split, _ in reference] == \
            [(8, False), (16, False), (32, True)]
        calls = counting(monkeypatch, "eigh")
        table = character_table(z9_group)
        assert table.attempts + 1 == len(calls) == 1
        assert np.array_equal(calls[0][1], reference[-1][2])
        # the pair's other class enters with its own weight
        part = table.partition
        r = len(part)
        star = inverse_classes(z9_group, part)
        order = [a for a in np.argsort(part.sizes, kind="stable")
                 if a <= star[a]]
        rng = random.Random(0)
        weights = [rng.gauss(0.0, 1.0) for _ in range(r)]
        root = np.sqrt(part.sizes)
        matrices = dict(class_matrices(part, range(r)))
        M = np.zeros((r, r))
        for a in order[:32]:
            M += weights[a] * matrices[a]
            if star[a] != a:
                M += weights[star[a]] * matrices[star[a]]
        N = M * root[None, :] / root[:, None]
        assert np.allclose(calls[0][1], N + N.T, rtol=0, atol=1e-9)

    def test_retry_only_after_the_full_sum_fails(self, h5_group, monkeypatch):
        # a gap no spectrum reaches: every retry runs every prefix
        calls = counting(monkeypatch, "eigh")
        monkeypatch.setattr(oracle, "GAP", 1e9)
        monkeypatch.setattr(oracle, "RETRIES", 3)
        with pytest.raises(DegenerateSpectrum) as info:
            character_table(h5_group)
        assert str(info.value) == \
            "eigenvalue gap stayed below 1000000000.0 for 3 retries"
        # 29 classes, 15 of them one per inverse pair: prefixes of 8 and 15
        assert len(calls) == 3 * 2

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
        calls = counting(monkeypatch, "eigh", forge=lambda out: (
            np.arange(r, dtype=np.float64), forged / np.sqrt(sizes)[:, None]))
        with pytest.raises(ValidationFailed, match="orthogonality deviation"):
            character_table(h3_group)
        assert len(calls) == 1

    @pytest.mark.parametrize("reals, pairs, separated", [
        ([0.0, 0.9], [], False),
        ([0.0, 1.1], [], True),
        ([0.0, 1.9, 4.0], [], True),
        ([5.0], [(0.0, 0.4)], False),
        ([5.0], [(0.0, 0.6)], True),
        ([0.9], [(0.0, 0.6)], True),
        ([0.9], [(0.0, 0.3)], False),
        ([], [(0.0, 0.6), (0.7, 1.5)], True),
        ([], [(0.0, 0.6), (0.7, 0.2)], False),
    ])
    def test_split_is_the_pairwise_gap_test(self, reals, pairs, separated):
        # a normal matrix with the given real eigenvalues and pairs
        # a +- ib, in units of the gap, rotated by an orthogonal matrix
        gap = 1e-3
        r = len(reals) + 2 * len(pairs)
        D = np.zeros((r, r))
        D[range(len(reals)), range(len(reals))] = reals
        for k, (a, b) in enumerate(pairs):
            i = len(reals) + 2 * k
            D[i:i + 2, i:i + 2] = [[a, b], [-b, a]]
        O = np.linalg.qr(np.random.default_rng(r).standard_normal((r, r)))[0]
        N = O @ (gap * D) @ O.T
        u = oracle._split(N, gap)
        assert (u is not None) == separated
        if separated:
            lam = np.diag(u.conj().T @ N @ u)
            assert np.allclose(N @ u, u * lam, rtol=0, atol=1e-12)
            assert np.allclose(u.conj().T @ u, np.eye(r), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("name", ["h5_group", "z9_group"])
    def test_odd_order_splits_every_conjugate_pair(self, name, request,
                                                   monkeypatch):
        # at odd order only the trivial character is real, so each other
        # character shares 2 Re(lambda) with its conjugate and is split
        # from it in a 2 x 2 block
        group = request.getfixturevalue(name)
        log = counting(monkeypatch, "eigh")
        counting(monkeypatch, "eig", log)
        table = character_table(group)
        r = len(table)
        last = max(i for i, (call, _) in enumerate(log) if call == "eigh")
        assert [(call, a.shape) for call, a in log[last + 1:]] == \
            [("eig", ((r - 1) // 2, 2, 2))]
        real = np.max(np.abs(table.rows.imag), axis=1) < 1e-9
        trivial = np.max(np.abs(table.rows - 1), axis=1) < 1e-9
        assert np.array_equal(real, trivial) and trivial.sum() == 1
        conjugate = [int(np.argmin(np.abs(table.rows - row.conj()).max(1)))
                     for row in table.rows]
        assert sorted(conjugate) == list(range(r))
        assert [conjugate[i] == i for i in range(r)] == trivial.tolist()

    @pytest.mark.parametrize("name", ["abelian_z4sq", "rank3_z8"])
    def test_p2_real_classes(self, name, request):
        # Brauer's permutation lemma: as many real characters as classes
        # with z ~ -z, which count their weight once
        ring = request.getfixturevalue(name)
        group = LazardGroup(ring)
        table = character_table(group)
        part = table.partition
        star = np.array(inverse_classes(group, part))
        real_classes = int(np.sum(star == np.arange(len(part))))
        assert 1 < real_classes < len(part)
        real = np.max(np.abs(table.rows.imag), axis=1) < 1e-9
        assert int(real.sum()) == real_classes
        assert_same_table(table)
