"""Coadjoint orbits, Kirillov characters, intertwining suites, p = 2 cells."""

import itertools
import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit import harmonic, liering, oracle, orbitmethod
from orbitkit.cli import load_ring_spec
from orbitkit.errors import PropertyFailed, RegimeViolation, UnexpectedFailure
from orbitkit.harmonic import ADDITIVE, ClassFunction
from orbitkit.liering import LazardGroup, make_ring
from orbitkit.oracle import character_table, conjugacy_classes, match_tables
from orbitkit.orbitmethod import (CoadjointOrbit, coadjoint_orbits,
                                  indicators, kirillov_character,
                                  p2_convolution_check, p2_orbit_partition,
                                  verify_exp_star, verify_idempotents)

from conftest import (bincount_class_matrix, closure_failure, express,
                      forged_closure_lists, forged_h3_orbits, leaving_member)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def ring_spec_paths():
    return [pytest.param(path, id=path.stem)
            for path in sorted(SPECS.glob("*.json"))
            if "moduli" in json.loads(path.read_text())]


class TestCoadjointOrbits:
    def test_heisenberg_f3_sizes(self, h3_group):
        orbits = coadjoint_orbits(h3_group)
        assert Counter(o.size for o in orbits) == {1: 9, 9: 2}
        assert sum(o.size for o in orbits) == 27

    def test_heisenberg_f5_sizes(self, h5_group):
        orbits = coadjoint_orbits(h5_group)
        assert Counter(o.size for o in orbits) == {1: 25, 25: 4}

    def test_heisenberg_z9_sizes(self, z9_group):
        orbits = coadjoint_orbits(z9_group)
        assert Counter(o.size for o in orbits) == {1: 81, 9: 18, 81: 6}
        assert all(math.isqrt(o.size) ** 2 == o.size for o in orbits)

    def test_abelian_orbits_are_singletons(self):
        ring = make_ring(3, (1, 1), {})
        orbits = coadjoint_orbits(LazardGroup(ring))
        assert len(orbits) == 9
        assert all(o.size == 1 for o in orbits)

    def test_orbits_partition_the_dual(self, h3_group):
        orbits = coadjoint_orbits(h3_group)
        seen = np.concatenate([o.indices for o in orbits])
        assert sorted(seen.tolist()) == list(range(27))

    def test_representative_and_indicator(self, h3_group):
        orbit = max(coadjoint_orbits(h3_group), key=lambda o: o.size)
        first = tuple(orbit.ring.grid.elements[orbit.indices.min()].tolist())
        assert repr(orbit) == f"CoadjointOrbit(size=9, rep={first})"
        assert np.flatnonzero(indicators([orbit]).values[0]).tolist() \
            == orbit.indices.tolist()

    def test_non_integral_dual_leaves_the_lattice(self, monkeypatch):
        # moduli (2, 1) at p = 3: a matrix sending e_1 to (1, 1) would send
        # the character e_0 to the exponents (1, 1/3); forged onto e^x
        ring = make_ring(3, (2, 1), {})
        group = LazardGroup(ring)
        cert = oracle.conjugation_certificate(group)
        monkeypatch.setattr(cert, "matrices",
                            (np.array([[1, 0], [1, 1]]),) + cert.matrices[1:])
        with pytest.raises(PropertyFailed) as info:
            coadjoint_orbits(group)
        assert str(info.value) == "Ad*(e^(1, 0)) left the character lattice"

    def test_no_grid_lookup(self, h5_group, monkeypatch):
        # the dual permutations come from the grid's linear builder alone
        oracle.conjugation_certificate(h5_group)
        calls = []
        real = liering.Grid.index_batch

        def counted(self, X):
            calls.append(np.shape(X))
            return real(self, X)
        monkeypatch.setattr(liering.Grid, "index_batch", counted)
        assert len(coadjoint_orbits(h5_group)) == 29
        assert calls == []


class TestKirillovCharacter:
    """The characters at the class representatives, one row per orbit."""

    def test_degrees_on_heisenberg(self, h3_group):
        # the degree is the value at the identity, grid index 0, the
        # representative of the first class
        chars = kirillov_character(h3_group, coadjoint_orbits(h3_group))
        assert chars.shape == (11, 11)
        assert conjugacy_classes(h3_group).reps[0] == 0
        degrees = [round(v.real) for v in chars[:, 0]]
        assert Counter(degrees) == {1: 9, 3: 2}
        assert sum(d ** 2 for d in degrees) == 27

    def test_degree_three_character_is_central(self, h3_group):
        # chi vanishes off Z(G) and has |chi| = 3 on it
        orbit = max(coadjoint_orbits(h3_group), key=lambda o: o.size)
        (vals,) = kirillov_character(h3_group, [orbit])
        E = h3_group.elements[conjugacy_classes(h3_group).reps]
        central = (E[:, 0] == 0) & (E[:, 1] == 0)
        assert np.max(np.abs(vals[~central])) < 1e-12
        assert np.allclose(np.abs(vals[central]), 3.0)

    def test_value_at_identity_is_degree(self, h5_group):
        orbits = coadjoint_orbits(h5_group)
        chars = kirillov_character(h5_group, orbits)
        for orbit, chi in zip(orbits, chars):
            assert abs(chi[0] - math.isqrt(orbit.size)) < 1e-12

    def test_orthonormal_family(self, h3_group):
        # class functions: the mass-1 inner product weights each
        # representative by its class size
        chars = kirillov_character(h3_group, coadjoint_orbits(h3_group))
        part = conjugacy_classes(h3_group)
        gram = (chars * part.sizes) @ chars.conj().T / 27
        assert np.max(np.abs(gram - np.eye(len(chars)))) < 1e-9

    def test_matches_oracle_table(self, h3_group):
        chars = kirillov_character(h3_group, coadjoint_orbits(h3_group))
        report = match_tables(chars, character_table(h3_group))
        assert report.max_deviation < 1e-8

    def test_non_square_orbit_rejected(self, h3, h3_group):
        fake = CoadjointOrbit(h3, [0, 1])
        with pytest.raises(PropertyFailed):
            kirillov_character(h3_group, [fake])

    def test_peak_memory_is_a_block(self):
        # U4(F5): the 265 x 15625 complex values on the grid (66 MB) are
        # never held, one block of one orbit at a time
        group = LazardGroup(load_ring_spec(SPECS / "u4_f5.json"))
        orbits = coadjoint_orbits(group)
        full = len(orbits) * len(group) * 16
        assert full > 66e6
        tracemalloc.start()
        try:
            chars = kirillov_character(group, orbits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chars.shape == (265, 265)
        assert peak < full / 10


def one_orbit_character(group, orbit):
    """An orbit character as it was computed one orbit at a time: one
    inverse FFT of the orbit's indicator on the grid, divided by the
    degree."""
    ring = group.ring
    n = ring.order()
    ind = np.zeros(n, dtype=np.complex128)
    ind[orbit.indices] = 1.0
    vals = n * np.fft.ifftn(ind.reshape(ring.sizes)).ravel()
    return vals / math.isqrt(orbit.size)


def one_orbit_failure(group, orbit, position):
    """The failure text of the one-orbit checks of the orbit at
    ``position``, or None: its size, then its closure."""
    if math.isqrt(orbit.size) ** 2 != orbit.size:
        return f"orbit size {orbit.size} is not a perfect square"
    return closure_failure(group, orbit, position)


class TestKirillovClosure:
    """Each orbit must be closed under the certificate's dual maps, an
    exact check, one orbit at a time."""

    @pytest.mark.parametrize("name", ["square", "moved", "overlapping"])
    def test_forged_orbit_is_named(self, h3_group, name):
        orbits, position = forged_closure_lists(h3_group)[name]
        want = one_orbit_failure(h3_group, orbits[position], position)
        assert want is not None
        with pytest.raises(PropertyFailed) as info:
            kirillov_character(h3_group, orbits)
        assert str(info.value) == want
        x = int(want.split("grid index ")[1].split()[0])
        # the named member's orbit reaches outside the forged one
        owner = next(o for o in coadjoint_orbits(h3_group)
                     if x in o.indices)
        assert x in orbits[position].indices
        assert not set(owner.indices) <= set(orbits[position].indices)

    def test_overlap_is_checked_orbit_by_orbit(self, h3_group):
        # the overlapping forgery shares eight members with an earlier
        # orbit, and moves its members only into that orbit
        orbits, position = forged_closure_lists(h3_group)["overlapping"]
        forged = set(orbits[position].indices.tolist())
        earlier = set(itertools.chain.from_iterable(
            o.indices.tolist() for o in orbits[:position]))
        assert max(len(forged & set(o.indices.tolist()))
                   for o in orbits[:position]) == 8
        assert leaving_member(h3_group, forged) is not None
        assert leaving_member(h3_group, forged | earlier) is None

    def test_real_orbits_are_closed(self, h5_group):
        # every orbit of H(F5) passes the reference closure check
        assert all(leaving_member(h5_group, o.indices) is None
                   for o in coadjoint_orbits(h5_group))


class TestKirillovBlocks:
    """The characters of a block of orbits, one FFT for the block, against
    the one-orbit transform."""

    @pytest.mark.parametrize("path", [p for p in ring_spec_paths()
                                      if "rank3_z8" not in p.id])
    @pytest.mark.parametrize("cells", [None, 1], ids=["blocks", "single"])
    def test_bit_for_bit(self, path, cells, monkeypatch):
        # H(Z/9) takes ten blocks of 11 orbits and one of 5, U4(F5) 265
        # blocks of one; the block helper's full-grid values, which verify
        # reads, and kirillov_character's values at the representatives
        if cells is not None:
            monkeypatch.setattr(orbitmethod, "_BLOCK_CELLS", cells)
        group = LazardGroup(load_ring_spec(path))
        orbits = coadjoint_orbits(group)
        reps = conjugacy_classes(group).reps
        chars = kirillov_character(group, orbits)
        assert chars.shape == (len(orbits), len(reps))
        blocks = orbitmethod._block_characters(group, orbits)
        rows = itertools.chain.from_iterable(vals for _, _, vals in blocks)
        for orbit, chi, row in zip(orbits, chars, rows, strict=True):
            want = one_orbit_character(group, orbit)
            assert row.tobytes() == want.tobytes()
            assert chi.tobytes() == want[reps].tobytes()

    @pytest.mark.parametrize("order", [("square", "odd"), ("odd", "square")])
    def test_first_failure_in_orbit_order(self, h3, h3_group, order):
        # the forged orbits sit in the middle of one block of eleven real
        # orbits; whichever comes first raises, with its one-orbit text
        square, odd = forged_h3_orbits(h3)
        first, second = (square, odd) if order[0] == "square" else (odd,
                                                                     square)
        orbits = coadjoint_orbits(h3_group)
        orbits = orbits[:5] + [first] + orbits[5:8] + [second] + orbits[8:]
        assert len(list(orbitmethod._orbit_blocks(orbits, 27))) == 1
        want = one_orbit_failure(h3_group, first, 5)
        assert want is not None
        assert one_orbit_failure(h3_group, second, 9) is not None
        with pytest.raises(PropertyFailed) as info:
            kirillov_character(h3_group, orbits)
        assert str(info.value) == want


class TestVerifyIdempotents:
    def test_heisenberg_f3_passes(self, h3_group):
        report = verify_idempotents(h3_group)
        assert report["passed"]
        assert report["orbits"] == 11
        assert report["witness"] is None
        for key in ("fourier_indicator", "idempotent", "orthogonal",
                    "complete"):
            assert report[key] < 1e-8

    def test_heisenberg_f5_passes(self, h5_group):
        report = verify_idempotents(h5_group)
        assert report["passed"]
        assert report["orbits"] == 29

    def test_p2_rejected(self, rank3_z8_group):
        with pytest.raises(RegimeViolation):
            verify_idempotents(rank3_z8_group)

    def test_passes_above_the_old_table_limit(self):
        # order 3^7 = 2187 was refused by the n x n table
        ring = make_ring(3, (3, 2, 2), {(0, 1): {2: 1}})
        assert ring.order() > orbitmethod._TABLE_LIMIT
        group = LazardGroup(ring)
        report = verify_idempotents(group)
        assert report["passed"]
        assert report["witness"] is None
        assert report["orbits"] == len(conjugacy_classes(group))
        for key in ("fourier_indicator", "idempotent", "orthogonal",
                    "complete"):
            assert report[key] < 1e-10


class TestVerifyExpStar:
    def test_heisenberg_f3_exhaustive(self, h3_group):
        # a mismatch raises PropertyFailed
        assert verify_exp_star(h3_group) is None

    def test_p2_rejected(self, rank3_z8_group):
        with pytest.raises(RegimeViolation):
            verify_exp_star(rank3_z8_group)

    def test_exact_above_the_old_table_limit(self):
        # order 3^7 = 2187 is above _TABLE_LIMIT; the check stays exact
        ring = make_ring(3, (3, 2, 2), {(0, 1): {2: 1}})
        assert ring.order() > orbitmethod._TABLE_LIMIT
        assert verify_exp_star(LazardGroup(ring)) is None


@pytest.fixture(scope="module")
def rank3_z8_table(rank3_z8_group):
    return character_table(rank3_z8_group)


class TestP2OrbitPartition:
    def test_rank3_z8_cells(self, rank3_z8_table):
        _, cells = p2_orbit_partition(rank3_z8_table)
        assert len(cells) == 64
        assert Counter(len(c.irreducibles) for c in cells) \
            == {8: 32, 2: 32}
        assert sum(c.orbit.size for c in cells) == 64

    def test_cells_cover_irreducibles_once(self, rank3_z8_table):
        _, cells = p2_orbit_partition(rank3_z8_table)
        seen = sorted(i for c in cells for i in c.irreducibles)
        assert seen == list(range(320))

    def test_idempotents_supported_on_even_coordinates(self,
                                                       rank3_z8_table):
        # each e_Omega lives on G^2 = exp(2g), the ring of every cell's
        # orbit, and that is the even coordinates of G
        sub, cells = p2_orbit_partition(rank3_z8_table)
        assert all(c.orbit.ring is sub.induced for c in cells)
        group = rank3_z8_table.partition.group
        even = np.flatnonzero(~np.any(group.elements % 2, axis=1))
        assert sorted(sub.ambient_indices().tolist()) == even.tolist()

    @pytest.mark.parametrize("moduli", [(3, 3, 3), (3, 2, 3), (2, 3, 3)])
    def test_orbits_match_the_restricted_closure(self, moduli):
        ring = make_ring(2, moduli, {(0, 1): {2: 4}})
        group = LazardGroup(ring)
        sub, cells = p2_orbit_partition(character_table(group))
        want = restricted_closure(group, sub)
        assert [c.orbit.indices.tolist() for c in cells] == \
            [o.tolist() for o in want]

    def test_no_subring_solve(self, rank3_z8_table, monkeypatch):
        # the (2g)* permutations are pushed down from g*: once 2g is built,
        # no image is solved for in the subring basis, so the partition
        # makes only the solves of building 2g
        calls = []
        real = liering.solve_mod

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(liering, "solve_mod", counted)
        ring = rank3_z8_table.partition.group.ring
        liering.Subring(ring, [ring.scale(ring.basis(i), 2)
                               for i in range(ring.rank)])
        building = len(calls)
        calls.clear()
        _, cells = p2_orbit_partition(rank3_z8_table)
        assert len(cells) == 64
        assert len(calls) == building

    def test_abelian_cells(self, abelian_z4sq_group):
        _, cells = p2_orbit_partition(character_table(abelian_z4sq_group))
        assert len(cells) == 4
        assert Counter(len(c.irreducibles) for c in cells) == {4: 4}

    def test_odd_prime_rejected(self, h3_group):
        with pytest.raises(RegimeViolation):
            p2_orbit_partition(character_table(h3_group))

    def test_shallow_uniform_depth_rejected(self):
        # (Z/2)^2 is abelian but 4g = 0 has no room below the moduli
        ring = make_ring(2, (1, 1), {})
        with pytest.raises(RegimeViolation):
            p2_orbit_partition(character_table(LazardGroup(ring)))


def restricted_closure(group, sub):
    """The (2g)* orbits as closed under each certified matrix restricted to
    2g: the images of the subring basis solved for in that basis (conftest
    ``express``), and the dual permutation of the restricted matrix from
    the exponents times the pairing scale."""
    ring, induced = group.ring, sub.induced
    scale = orbitmethod.pairing_scale(induced)
    weights = induced.grid.elements * scale
    k = len(sub.basis_coords)
    perms = []
    for B in oracle.conjugation_certificate(group).matrices:
        cols = [express(sub, tuple((np.array(b) @ B % ring._mods).tolist()))
                for b in sub.basis_coords]
        R = np.array(cols, dtype=np.int64).reshape(k, k).T
        moved = (weights @ R) % induced.big
        assert not np.any(moved % scale)
        perms.append(induced.grid.index_batch(moved // scale))
    return oracle.permutation_orbits(induced.order(), perms)[1]


class TestP2ConvolutionCheck:
    def test_rank3_z8_report(self, rank3_z8_group):
        report = p2_convolution_check(rank3_z8_group)
        assert report == {"part_b": "exact", "part_a": "skipped",
                          "expected_failure": (8, 48, 72)}

    def test_abelian_never_fails(self, abelian_z4sq_group):
        report = p2_convolution_check(abelian_z4sq_group)
        assert report["part_b"] == "exact"
        assert report["expected_failure"] is None

    def test_one_sided_at_depth_three(self):
        # abelian (Z/8)^2: depth 3 turns on the one-factor claim
        ring = make_ring(2, (3, 3), {})
        report = p2_convolution_check(LazardGroup(ring))
        assert report["part_a"] == "exact"
        assert report["expected_failure"] is None

    def test_odd_prime_rejected(self, h3_group):
        with pytest.raises(RegimeViolation):
            p2_convolution_check(h3_group)

    def test_exact_above_the_old_table_limit(self):
        # order 2^12 = 4096 is above _TABLE_LIMIT; the check stays exact
        ring = make_ring(2, (3,) * 4, {(0, 1): {3: 4}})
        group = LazardGroup(ring)
        report = p2_convolution_check(group)
        assert report["part_b"] == "exact"
        a, b, c = report["expected_failure"]
        # the witness, counted by hand at the one element c
        part = conjugacy_classes(group)
        H = group.elements[part.classes[a]]
        x_c = np.broadcast_to(group.elements[c], H.shape)
        in_b = part.labels == b
        by_group = in_b[ring.grid.index_batch(
            ring.ch_batch(np.mod(-H, ring._mods), x_c))]
        by_sum = in_b[ring.grid.index_batch(x_c - H)]
        assert by_group.sum() != by_sum.sum()


# -- element-level reference ---------------------------------------------------
# Full n x n translation tables and per-class counts, built without
# harmonic.translates, for the checks to be compared against.

def ref_group_table(group):
    """T[h, c] = index of (e^{x_h})^{-1} e^{x_c}; one row per left factor."""
    ring = group.ring
    E = group.elements
    n = len(E)
    neg = np.mod(-E, ring._mods)
    shape = (n, n, ring.rank)
    prod = ring.ch_batch(np.broadcast_to(neg[:, None, :], shape),
                         np.broadcast_to(E[None, :, :], shape))
    return prod @ ring.grid.strides


def ref_additive_table(group):
    """T[h, c] = index of x_c - x_h."""
    ring = group.ring
    E = group.elements
    diff = np.mod(E[None, :, :] - E[:, None, :], ring._mods)
    return diff @ ring.grid.strides


def ref_indicator_counts(table, labels, members, n_classes):
    """counts[b, c] = #{h in members : table[h, c] lies in class b}."""
    lab = labels[table[members]]
    n = table.shape[1]
    cols = np.broadcast_to(np.arange(n, dtype=np.int64), lab.shape)
    flat = lab * n + cols
    return np.bincount(flat.ravel(), minlength=n_classes * n).reshape(
        n_classes, n)


def ref_exp_star_witness(part, t_grp, t_add):
    """First (a, b, c) where the element-level counts of the two laws
    differ, or None."""
    r = len(part)
    for a in range(r):
        cg = ref_indicator_counts(t_grp, part.labels, part.classes[a], r)
        ca = ref_indicator_counts(t_add, part.labels, part.classes[a], r)
        if not np.array_equal(cg, ca):
            b, c = np.unravel_index(int(np.argmax(cg != ca)), cg.shape)
            return (a, int(b), int(c))
    return None


def dict_counts_check(ring, group, t_add=None):
    """The table branch of p2_convolution_check on element-level tables, as
    it stood before the class-count check; ``t_add`` replaces the additive
    table.  Both count matrices of a class are built when it is visited."""
    part = conjugacy_classes(group)
    labels, r = part.labels, len(part)
    even = np.all(group.elements % 2 == 0, axis=1)
    inside = [a for a in range(r) if bool(even[part.classes[a]].all())]
    outside = [a for a in range(r) if a not in set(inside)]
    one_sided = ring.uniform_depth >= 3
    report = {"part_b": None, "part_a": None if one_sided else "skipped",
              "expected_failure": None}
    t_grp = ref_group_table(group)
    if t_add is None:
        t_add = ref_additive_table(group)

    def mismatch_at(a, rows):
        cg = ref_indicator_counts(t_grp, labels, part.classes[a], r)
        ca = ref_indicator_counts(t_add, labels, part.classes[a], r)
        bad = cg[rows] != ca[rows]
        if not bad.any():
            return None
        b, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return (a, int(np.asarray(rows)[b]), int(c))

    for a in inside:
        hit = mismatch_at(a, inside)
        if hit is not None:
            raise UnexpectedFailure(
                f"G^2-supported pair breaks exp* at (classes, element) "
                f"= {hit}")
    report["part_b"] = "exact"
    if one_sided:
        all_rows = list(range(r))
        for a in inside:
            hit = mismatch_at(a, all_rows)
            if hit is not None:
                raise UnexpectedFailure(
                    f"one-sided G^2 pair breaks exp* at {hit}")
        for a in outside:
            hit = mismatch_at(a, inside)
            if hit is not None:
                raise UnexpectedFailure(
                    f"one-sided G^2 pair breaks exp* at {hit}")
        report["part_a"] = "exact"
    search = outside if one_sided else list(range(r))
    for a in outside:
        hit = mismatch_at(a, search)
        if hit is not None:
            report["expected_failure"] = hit
            break
    return report


def _swapped_translates(h, cols):
    """harmonic.translates with grid columns ``cols`` swapped in h's
    additive row, as if the additive table had that swap.  A call may ask
    for a subset of the grid's columns, such as the class representatives,
    so the swapped row is read at the requested columns."""
    real = harmonic.translates

    def patched(domain, law, rows, cols_=None):
        out = real(domain, law, rows, cols_)
        at = np.flatnonzero(np.arange(len(domain))[rows] == h)
        if law == ADDITIVE and at.size:
            row = real(domain, law, [h])[0]
            row[cols] = row[cols[::-1]]
            out[at] = row if cols_ is None else row[cols_]
        return out
    return patched


def _patching_translates(patched):
    """The one caller of harmonic.translates in the count checks, the class
    matrices, routed through ``patched``."""
    return mock.patch.object(oracle, "translates", patched)


def _outcome(check):
    try:
        return "report", check()
    except (PropertyFailed, UnexpectedFailure) as exc:
        return "raised", str(exc)


def _depth3_ring():
    """p = 2, moduli (2, 2, 4), [x, y] = 8z: uniform depth 3, order 256."""
    return make_ring(2, (2, 2, 4), {(0, 1): {2: 8}}, label="depth3")


class TestP2CountsOneClassAtATime:
    """p2_convolution_check compares one class at a time through the
    translation kernel; its outcome must equal the dict-based version's on
    element-level tables."""

    @pytest.mark.parametrize("make", [
        lambda: make_ring(2, (3,) * 3, {(0, 1): {2: 4}}), _depth3_ring],
        ids=["rank3_z8", "depth3"])
    def test_same_report(self, make):
        ring = make()
        group = LazardGroup(ring)
        new = p2_convolution_check(group)
        assert new == dict_counts_check(ring, group)
        assert new["expected_failure"] is not None

    # (ring, row h of the additive table, two columns swapped in it, the
    # start of the failure text or the moved expected-failure witness)
    @pytest.mark.parametrize("make, h, cols, kind", [
        (lambda: make_ring(2, (3,) * 3, {(0, 1): {2: 4}}), (2, 0, 0),
         (0, 1), "G^2-supported pair"),
        (lambda: make_ring(2, (3,) * 3, {(0, 1): {2: 4}}), (0, 1, 0),
         (1, 2), (8, 45, 1)),
        (_depth3_ring, (2, 0, 0), (0, 1), "G^2-supported pair"),
        (_depth3_ring, (0, 0, 2), (1, 3), "one-sided"),
        (_depth3_ring, (0, 1, 0), (0, 1), (16, 40, 0)),
    ], ids=["z8-inside", "z8-outside", "depth3-inside", "depth3-one-sided",
            "depth3-outside"])
    def test_same_outcome_on_a_patched_table(self, make, h, cols, kind):
        ring = make()
        group = LazardGroup(ring)
        row = ring.grid.index_batch(h)
        cols = list(cols)
        t_add = ref_additive_table(group)
        t_add[row, cols] = t_add[row, cols[::-1]]
        with _patching_translates(_swapped_translates(row, cols)):
            new = _outcome(lambda: p2_convolution_check(group))
        old = _outcome(lambda: dict_counts_check(ring, group, t_add=t_add))
        assert new == old
        if isinstance(kind, tuple):
            assert new[1]["expected_failure"] == kind
        else:
            assert new[0] == "raised" and new[1].startswith(kind)


# -- property tests --------------------------------------------------------------

# largest exponent e with p^e <= 729, the order cap of the drawn rings
_EXPONENT_CAP = {2: 9, 3: 6, 5: 4}


@st.composite
def class2_blocks(draw, p, budget):
    """(moduli, brackets) of one class-2 block within ``budget`` summed
    exponents: ``upper`` coordinates bracketing into ``centre`` central
    ones, a central extension (upper 2 and centre 1 is a Heisenberg ring).
    Each constant's valuation is raised until it is well defined on the
    moduli, and for p = 2 until [g, g] lies in 4g and the half bracket is
    well defined, so make_ring accepts every draw."""
    low = 2 if p == 2 else 1        # p = 2 needs uniform depth >= 2
    mid = 3 if p == 2 else 1        # [g, g] in 4g is zero mod 4
    upper, centre = draw(st.sampled_from(
        [(u, c) for u in (2, 3) for c in (1, 2)
         if u * low + c * mid <= budget]))
    spare = budget - upper * low - centre * mid
    moduli = []
    for m in range(upper + centre):
        least = low if m < upper else mid
        moduli.append(least + draw(st.integers(0, min(1, spare))))
        spare -= moduli[-1] - least
    brackets = {}
    for i, j in itertools.combinations(range(upper), 2):
        row = {}
        for m in range(upper, upper + centre):
            floor = moduli[m] - min(moduli[i], moduli[j])
            if p == 2:
                floor = max(2, floor + 1)
            unit = draw(st.integers(1, p ** (moduli[m] - floor) - 1)
                        .filter(lambda x: x % p))
            row[m] = unit * p ** floor
        brackets[(i, j)] = row
    return moduli, brackets


@st.composite
def small_rings(draw):
    """A valid ring of order <= 729: a class-2 block, alone or in a direct
    sum with a cyclic factor or a second block."""
    p = draw(st.sampled_from(sorted(_EXPONENT_CAP)))
    low = 2 if p == 2 else 1
    budget = _EXPONENT_CAP[p]
    moduli, brackets = draw(class2_blocks(p, budget))
    spare = budget - sum(moduli)
    summand = draw(st.sampled_from(
        ["none"] + ["cyclic"] * (spare >= low)
        + ["block"] * (spare >= 3 * low)))
    if summand == "cyclic":
        moduli.append(draw(st.integers(low, spare)))
    elif summand == "block":
        more, extra = draw(class2_blocks(p, spare))
        shift = len(moduli)
        for (i, j), row in extra.items():
            brackets[(i + shift, j + shift)] = {m + shift: c
                                                for m, c in row.items()}
        moduli += more
    return make_ring(p, tuple(moduli), brackets)


@st.composite
def swaps(draw, n, reps):
    """(h, [c1, c2]): two class-representative columns to swap in h's
    additive row.  The count checks read the additive counts only at the
    representatives, which is exact while the counts are constant on
    classes; a swap elsewhere breaks that premise, not the law."""
    c1, c2 = draw(st.lists(st.sampled_from(reps), min_size=2, max_size=2,
                           unique=True))
    return draw(st.integers(0, n - 1)), [c1, c2]


class TestCountCheckProperties:
    """The class-count checks against element-level tables on drawn rings,
    with the additive law left alone or corrupted by one swap."""

    @given(ring=small_rings())
    def test_additive_counts_are_constant_on_classes(self, ring):
        # the premise of counting at the representatives only: the
        # element-level additive counts of every class a are constant on
        # each class of c
        group = LazardGroup(ring)
        part = conjugacy_classes(group)
        t_add = ref_additive_table(group)
        for members in part.classes:
            counts = ref_indicator_counts(t_add, part.labels, members,
                                          len(part))
            assert np.array_equal(counts,
                                  counts[:, part.reps][:, part.labels])

    @pytest.mark.parametrize("corrupt", [False, True],
                             ids=["valid", "one-swap"])
    @given(data=st.data())
    def test_checks_match_the_element_level_tables(self, corrupt, data):
        ring = data.draw(small_rings())
        group = LazardGroup(ring)
        t_add = ref_additive_table(group)
        patched = harmonic.translates
        if corrupt:
            h, cols = data.draw(swaps(len(group),
                                      conjugacy_classes(group).reps))
            t_add[h, cols] = t_add[h, cols[::-1]]
            patched = _swapped_translates(h, cols)
        with _patching_translates(patched):
            if ring.p == 2:
                new = _outcome(lambda: p2_convolution_check(group))
                old = _outcome(lambda: dict_counts_check(ring, group,
                                                         t_add=t_add))
                assert new == old
                return
            new = _outcome(lambda: verify_exp_star(group))
        witness = ref_exp_star_witness(conjugacy_classes(group),
                                       ref_group_table(group), t_add)
        assert new == (("report", None) if witness is None
                       else ("raised", f"witness: {witness}"))


# -- the sorted keys against dense class matrices --------------------------------

def dense_first_mismatch(part, classes, rows=None, forged=None):
    """_first_mismatch as it stood with dense counts: both laws' r x r
    class matrices of every class in turn, and the first (a, b, c) where
    they differ, b in ``rows`` and c in row-major order.  ``forged``, a
    cell (a, b, c, step), adds step to the additive count N+_a[b, c]."""
    keep = slice(None) if rows is None else rows
    for a, by_group in oracle.class_matrices(part, classes):
        by_sum = bincount_class_matrix(part, a, ADDITIVE)
        if forged is not None and forged[0] == a:
            by_sum[forged[1], forged[2]] += forged[3]
        bad = by_group[keep] != by_sum[keep]
        if bad.any():
            b, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
            return (a, int(b if rows is None else rows[b]), part.reps[c])
    return None


def count_scans(group):
    """(classes, rows) of each scan the count checks make: every class at
    p >= 3; the G^2-supported classes and the others, against those rows
    and against every row, at p = 2."""
    part = conjugacy_classes(group)
    r = len(part)
    if group.ring.p > 2:
        return [(list(range(r)), None)]
    even = np.all(group.elements % 2 == 0, axis=1)
    inside = [a for a in range(r) if even[part.classes[a]].all()]
    outside = [a for a in range(r) if a not in set(inside)]
    return [(cs, rows) for cs in (inside, outside) for rows in (inside, None)]


def assert_keys_match_dense(group):
    part = conjugacy_classes(group)
    found = []
    for classes, rows in count_scans(group):
        got = orbitmethod._first_mismatch(part, classes, rows)
        assert got == dense_first_mismatch(part, classes, rows)
        found.append(got)
    return found


class TestSortedKeys:
    """_first_mismatch compares each run of classes as sorted keys and
    decodes the witness from the first key whose counts differ: its verdict
    and witness against the dense comparison of every class."""

    @pytest.mark.parametrize("path", ring_spec_paths())
    def test_specs(self, path):
        assert_keys_match_dense(LazardGroup(load_ring_spec(path)))

    @settings(max_examples=8)
    @given(data=st.data())
    def test_drawn_rings(self, data):
        # with one swap of representative columns, or none
        ring = data.draw(small_rings())
        group = LazardGroup(ring)
        patched = harmonic.translates
        if data.draw(st.booleans()):
            patched = _swapped_translates(*data.draw(swaps(
                len(group), conjugacy_classes(group).reps)))
        with _patching_translates(patched):
            assert_keys_match_dense(group)

    def test_swapped_labels_in_one_row(self, h5_group):
        # two representative columns of one additive row trade labels:
        # every class keeps its multiset of labels, and of columns, so only
        # keys that pair each label with its column (t, b, c) see it
        part = conjugacy_classes(h5_group)
        h = int(part.classes[3][0])
        cols = [0, part.reps[-1]]
        row = harmonic.translates(h5_group, ADDITIVE, [h], cols)[0]
        assert part.labels[row[0]] != part.labels[row[1]]
        with _patching_translates(_swapped_translates(h, cols)):
            found = assert_keys_match_dense(h5_group)
        assert found[0] is not None and found[0][0] == 3

    @pytest.mark.parametrize("fixture", ["h5_group", "z9_group"])
    @pytest.mark.parametrize("forgery", ["a key counted twice",
                                         "the largest key dropped"])
    def test_witness_of_forged_keys(self, request, monkeypatch, fixture,
                                    forgery):
        # the additive keys of one run forged: a middle key of class 3
        # counted once more, so both arrays hold the same keys and differ
        # only in how often one occurs; or the run's largest key dropped,
        # so the additive array runs out first.  The dense counts get the
        # same cell forged, and both name it.
        part = conjugacy_classes(request.getfixturevalue(fixture))
        r = len(part)
        real = orbitmethod.class_keys
        cells = []

        def forge(block, found):
            """The run's forged keys, and the forged key with its step."""
            if forgery == "a key counted twice" and 3 in block:
                t = block.index(3)
                lo, hi = np.searchsorted(found, [t * r * r, (t + 1) * r * r])
                at = (lo + hi) // 2
                return np.insert(found, at, found[at]), int(found[at]), 1
            if forgery == "the largest key dropped" and block[-1] == r - 1:
                return found[:-1], int(found[-1]), -1
            return found, None, 0

        def keys(part, classes, law, rows=None):
            for block, found in real(part, classes, law, rows):
                if law == ADDITIVE:
                    found, key, step = forge(block, found)
                    if key is not None:
                        cells.append((block[key // (r * r)], key // r % r,
                                      key % r, step))
                yield block, found
        monkeypatch.setattr(orbitmethod, "class_keys", keys)
        got = orbitmethod._first_mismatch(part, range(r))
        (a, b, c, step), = cells
        assert got == (a, b, part.reps[c])
        assert got == dense_first_mismatch(part, range(r),
                                           forged=(a, b, c, step))

    @pytest.mark.parametrize("path", ring_spec_paths())
    def test_key_widths_agree(self, path, monkeypatch):
        # every spec ring's keys fit int32, and int64 keys are the same
        group = LazardGroup(load_ring_spec(path))
        part = conjugacy_classes(group)
        for classes, rows in count_scans(group):
            for law in (harmonic.GROUP, ADDITIVE):
                narrow = list(oracle.class_keys(part, classes, law, rows))
                with monkeypatch.context() as patch:
                    patch.setattr(oracle, "_key_dtype",
                                  lambda count, r: np.int64)
                    wide = list(oracle.class_keys(part, classes, law, rows))
                assert [block for block, _ in narrow] == \
                    [block for block, _ in wide]
                for (_, k32), (_, k64) in zip(narrow, wide):
                    assert k32.dtype == np.int32 and k64.dtype == np.int64
                    assert np.array_equal(k32, k64)

    def test_key_width_bound(self):
        # the largest key of a run of k classes is k r^2 - 1
        top = 2 ** 31 - 1
        assert oracle._key_dtype(top, 1) is np.int32
        assert oracle._key_dtype(top + 1, 1) is np.int64
        assert oracle._key_dtype(1, 46340) is np.int32
        assert oracle._key_dtype(2, 32768) is np.int64

    def test_the_keys_decide(self, h5_group, monkeypatch):
        # keys forged equal hide the swap from the new check alone: the
        # verdict is read from the keys, with no dense pass behind them
        part = conjugacy_classes(h5_group)
        h = int(part.classes[3][0])
        cols = [0, part.reps[-1]]
        real = orbitmethod.class_keys
        monkeypatch.setattr(
            orbitmethod, "class_keys",
            lambda part, classes, law, rows=None: real(part, classes,
                                                       harmonic.GROUP, rows))
        with _patching_translates(_swapped_translates(h, cols)):
            classes = range(len(part))
            assert dense_first_mismatch(part, classes) is not None
            assert orbitmethod._first_mismatch(part, classes) is None


# -- the n x n idempotent table as a reference ---------------------------------

def idempotent_inputs(group):
    """The orbits and their characters on G, one row each, bit for bit as
    the block helper yields them (``TestKirillovBlocks``)."""
    orbits = coadjoint_orbits(group)
    return orbits, np.array([one_orbit_character(group, o) for o in orbits])


def forged(characters, i, values):
    """The characters with row i's values replaced."""
    out = characters.copy()
    out[i] = values
    return out


def forging(monkeypatch, orbits, characters):
    """Patch orbitmethod._block_characters, which verify_idempotents reads
    a block of orbits at a time, to yield the given character of each
    orbit, looked up by the orbit's smallest member."""
    by_rep = {int(o.indices[0]): row for o, row in zip(orbits, characters)}

    def blocks(group, orbits):
        for lo, block in orbitmethod._orbit_blocks(orbits, len(group)):
            yield lo, block, np.array([by_rep[int(o.indices[0])]
                                       for o in block])
    monkeypatch.setattr(orbitmethod, "_block_characters", blocks)


def table_idempotents(ring, group, orbits, characters, tol=1e-8):
    """verify_idempotents as it stood with the n x n table: every product
    e_i * e_j at every element of G, from one gathered table per j."""
    n = len(group)
    E = np.array([math.isqrt(o.size) * row
                  for o, row in zip(orbits, characters)])
    dev_fourier = 0.0
    for orbit, row in zip(orbits, E):
        F = harmonic.fourier(harmonic.exp_star(ClassFunction(group, row)))
        ind = np.zeros(n)
        ind[orbit.indices] = 1.0
        dev_fourier = max(dev_fourier, float(np.max(np.abs(F.values - ind))))
    table = ref_group_table(group)
    dev_idem, dev_orth, witness = 0.0, 0.0, None
    for j in range(len(E)):
        conv = (E @ E[j][table]) / n
        for i in range(len(E)):
            target = E[i] if i == j else 0.0
            dev = float(np.max(np.abs(conv[i] - target)))
            if i == j:
                dev_idem = max(dev_idem, dev)
            elif dev > dev_orth:
                dev_orth, witness = dev, (i, j, int(np.argmax(
                    np.abs(conv[i]))))
    identity_target = np.zeros(n)
    identity_target[0] = n  # the identity is grid index 0
    dev_complete = float(np.max(np.abs(E.sum(axis=0) - identity_target)))
    passed = max(dev_fourier, dev_idem, dev_orth, dev_complete) <= tol
    return {"orbits": len(E), "fourier_indicator": dev_fourier,
            "idempotent": dev_idem, "orthogonal": dev_orth,
            "complete": dev_complete, "passed": passed,
            "witness": None if passed else witness}


def assert_agrees_with_the_table(ring):
    group = LazardGroup(ring)
    orbits, chars = idempotent_inputs(group)
    new = verify_idempotents(group)
    old = table_idempotents(ring, group, orbits, chars)
    assert new["passed"] and old["passed"]
    assert new["witness"] is old["witness"] is None
    for key in ("fourier_indicator", "idempotent", "orthogonal",
                "complete"):
        assert abs(new[key] - old[key]) <= 1e-12, key
    assert new.keys() == old.keys()


def table_spec_paths():
    out = []
    for path in sorted(SPECS.glob("*.json")):
        spec = json.loads(path.read_text())
        if "moduli" in spec and spec["p"] >= 3 \
                and spec["p"] ** sum(spec["moduli"]) <= 2048:
            out.append(pytest.param(path, id=path.stem))
    return out


class TestAgainstTheTable:
    @pytest.mark.parametrize("path", table_spec_paths())
    def test_specs_agree(self, path):
        assert_agrees_with_the_table(load_ring_spec(path))

    # the reference costs k^2 |G|^2 complex products: 7 s on a drawn
    # 729-element ring with 297 classes, 1.2 s at order 625, so the drawn
    # rings stop at 625 and five draws, for the suite's time budget
    @settings(max_examples=5)
    @given(ring=small_rings().filter(
        lambda ring: ring.p >= 3 and ring.order() <= 625))
    def test_drawn_rings_agree(self, ring):
        assert_agrees_with_the_table(ring)

    def test_forged_sum_of_two_idempotents_fails(self, h5, h5_group,
                                                 monkeypatch):
        orbits, chars = idempotent_inputs(h5_group)
        i, k = [idx for idx, o in enumerate(orbits) if o.size == 25][:2]
        rows = [math.isqrt(o.size) * row for o, row in zip(orbits, chars)]
        chars = forged(chars, i, (rows[i] + rows[k]) / 5)
        forging(monkeypatch, orbits, chars)
        report = verify_idempotents(h5_group)
        # one class per block of products: the same report
        monkeypatch.setattr(orbitmethod, "_CLASS_CELLS", 1)
        assert verify_idempotents(h5_group) == report
        old = table_idempotents(h5, h5_group, orbits, chars)
        assert not report["passed"] and not old["passed"]
        assert abs(report["orthogonal"] - old["orthogonal"]) <= 1e-12
        # e_i + e_k convolves e_k to e_k, whose peak is |Omega_k| = 25
        assert abs(report["orthogonal"] - 25.0) <= 1e-9
        wi, wj, c = report["witness"]
        assert {wi, wj} == {i, k}
        rows[i] += rows[k]
        table = ref_group_table(h5_group)
        product = rows[wi] @ rows[wj][table[:, c]] / len(h5_group)
        assert abs(abs(product) - report["orthogonal"]) <= 1e-9

    def test_row_not_constant_on_a_class_fails(self, h5_group, monkeypatch):
        orbits, chars = idempotent_inputs(h5_group)
        part = conjugacy_classes(h5_group)
        cls = next(c for c in part.classes if len(c) > 1)
        x = int(cls[-1])
        i = 3
        values = chars[i].copy()
        values[x] += 1e-6
        forging(monkeypatch, orbits, forged(chars, i, values))
        report = verify_idempotents(h5_group)
        assert not report["passed"]
        assert report["witness"] == (i, x)
        # the class-algebra deviations stay below the tolerance: only the
        # constancy check sees the change
        for key in ("idempotent", "orthogonal"):
            assert report[key] < 1e-8

    def test_row_not_hermitian_fails_at_a_representative(self, h5_group,
                                                         monkeypatch):
        # constant on every class, but moved on one class C_c* of an
        # inverse pair c < c* only: the Hermitian gate fails, and names a
        # representative of the pair
        orbits, chars = idempotent_inputs(h5_group)
        part = conjugacy_classes(h5_group)
        c = next(a for a in range(len(part)) if a < part.inverse[a])
        i = 3
        values = chars[i].copy()
        values[part.classes[part.inverse[c]]] += 1e-6
        forging(monkeypatch, orbits, forged(chars, i, values))
        report = verify_idempotents(h5_group)
        assert not report["passed"]
        wi, x = report["witness"]
        assert wi == i and x in (part.reps[c], part.reps[part.inverse[c]])

    def test_failure_planted_at_the_larger_class_is_reported(self, h5,
                                                             h5_group,
                                                             monkeypatch):
        # a Hermitian change on the pair c < c*, so it passes the gate: the
        # kernel computes c only, and its deviations are the table's
        orbits, chars = idempotent_inputs(h5_group)
        part = conjugacy_classes(h5_group)
        c = next(a for a in range(len(part))
                 if a < part.inverse[a] and part.sizes[a] > 1)
        i = next(idx for idx, o in enumerate(orbits) if o.size == 25)
        delta = 0.01 + 0.02j
        values = chars[i].copy()
        values[part.classes[part.inverse[c]]] += delta
        values[part.classes[c]] += np.conj(delta)
        chars = forged(chars, i, values)
        forging(monkeypatch, orbits, chars)
        report = verify_idempotents(h5_group)
        old = table_idempotents(h5, h5_group, orbits, chars)
        assert not report["passed"] and not old["passed"]
        for key in ("idempotent", "orthogonal"):
            assert report[key] > 1e-3
            assert abs(report[key] - old[key]) <= 1e-12, key
        # the witness sits at a class the kernel computes
        w = part.labels[report["witness"][2]]
        assert w <= part.inverse[w]


class TestClassMatrixBlocks:
    """The count and idempotent checks build their class matrices a run of
    classes per translation call, not one class at a time."""

    def test_translation_calls_per_check(self, z9_group, monkeypatch):
        part = conjugacy_classes(z9_group)
        r = len(part)
        calls = []
        real = oracle.translates

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(oracle, "translates", counted)
        verify_exp_star(z9_group)
        runs = len(list(oracle._class_blocks(part, range(r))))
        assert len(calls) <= 2 * runs < r
        calls.clear()
        verify_idempotents(z9_group)
        computed = [c for c in range(r) if c <= part.inverse[c]]
        assert len(calls) <= len(list(oracle._class_blocks(part, computed)))
        assert len(calls) < r


# -- the class-algebra kernel against its first form ----------------------------

def hermitian(part, at_reps):
    """The projection verify_idempotents applies before the class-algebra
    kernel: (e(z_a) + conj e(z_a*)) / 2, Hermitian bit for bit."""
    return (at_reps + at_reps[:, part.inverse].conj()) / 2


def listed_deviations(part, at_reps):
    """_class_algebra_deviations in its first form: per block, a list of
    class matrices stacked and cast to float64, every (j, i) product of the
    block's classes in one pair of products, and the witness found by
    argmax over the (c, j, i) transpose of the deviations.  Its maxima run
    over the cells the kernel computes: the blocks hold the classes
    c <= c*, so each block's first product is the kernel's, and the cells
    j > i count as 0."""
    n, r, k = len(part.group), len(part), len(at_reps)
    left = at_reps[:, part.inverse]
    fold_re = np.hstack([left.real, -left.imag])
    fold_im = np.hstack([left.imag, left.real])
    right = at_reps * part.sizes
    right = np.hstack([right.real.T, right.imag.T])
    diag = np.arange(k)
    below = np.tril_indices(k, -1)
    dev_idem = dev_orth = 0.0
    witness = None
    computed = [c for c in range(r) if c <= part.inverse[c]]
    step = max(1, orbitmethod._CLASS_CELLS // (r * k))
    for lo in range(0, len(computed), step):
        cs = computed[lo:lo + step]
        s = len(cs)
        stacked = np.vstack([M for _, M in oracle.class_matrices(part, cs)
                             ]).astype(np.float64)
        inner = (stacked @ right).reshape(s, r, 2, k).transpose(
            2, 1, 0, 3).reshape(2 * r, s * k)
        scale = (1.0 / (n * part.sizes[cs]))[None, :, None]
        conv_re = (fold_re @ inner).reshape(k, s, k)
        conv_re *= scale
        conv_im = (fold_im @ inner).reshape(k, s, k)
        conv_im *= scale
        conv_re[diag, :, diag] -= at_reps[:, cs].real
        conv_im[diag, :, diag] -= at_reps[:, cs].imag
        dev = np.hypot(conv_re, conv_im)
        dev_idem = max(dev_idem, float(dev[diag, :, diag].max()))
        dev[diag, :, diag] = 0.0
        dev[below[0], :, below[1]] = 0.0
        dev = dev.transpose(1, 0, 2)
        c, j, i = np.unravel_index(int(np.argmax(dev)), dev.shape)
        if dev[c, j, i] > dev_orth:
            dev_orth = float(dev[c, j, i])
            witness = (int(i), int(j), part.reps[cs[int(c)]])
    return dev_idem, dev_orth, witness


def assert_same_deviations(group, at_reps, monkeypatch, cells=(None, 1)):
    """Both kernels give the same deviations, bit for bit, and the same
    witness, at the default block size and with one class per block, on
    the Hermitian projection of ``at_reps``."""
    part = conjugacy_classes(group)
    at_reps = hermitian(part, at_reps)
    for size in cells:
        if size is not None:
            monkeypatch.setattr(orbitmethod, "_CLASS_CELLS", size)
        got = orbitmethod._class_algebra_deviations(part, at_reps)
        want = listed_deviations(part, at_reps)
        assert [float(x).hex() for x in got[:2]] == \
            [float(x).hex() for x in want[:2]]
        assert got[2] == want[2]
    return got


def characters_at_reps(group):
    orbits = coadjoint_orbits(group)
    roots = [math.isqrt(o.size) for o in orbits]
    return np.array(roots)[:, None] * kirillov_character(group, orbits)


class TestClassAlgebraKernel:
    """The class-algebra products over one class of each inverse pair and
    the strips of pairs j <= i, with the witness read per class and strip,
    against the listed first form."""

    @pytest.mark.parametrize("path", table_spec_paths())
    def test_specs(self, path, monkeypatch):
        ring = load_ring_spec(path)
        group = LazardGroup(ring)
        _, dev_orth, witness = assert_same_deviations(
            group, characters_at_reps(group), monkeypatch, (None,))
        assert dev_orth < 1e-8

    @settings(max_examples=6)
    @given(ring=small_rings().filter(
        lambda ring: ring.p >= 3 and ring.order() <= 243),
        seed=st.integers(0, 2 ** 16))
    def test_drawn_rings_and_values(self, ring, seed):
        # seeded complex values at the representatives: the products are
        # far from idempotent, so every deviation and witness is exercised
        group = LazardGroup(ring)
        r = len(conjugacy_classes(group))
        values = np.random.default_rng(seed).standard_normal((2, 4, r))
        with pytest.MonkeyPatch.context() as patch:
            assert_same_deviations(group, values[0] + 1j * values[1], patch)

    @pytest.mark.parametrize("kind", ["constant", "repeated-row"])
    def test_forged_ties(self, h5, h5_group, monkeypatch, kind):
        # small integer values keep every product exact, so equal
        # deviations are equal bit for bit and the witness is the first
        # largest in (c, j, i) order
        r = len(conjugacy_classes(h5_group))
        if kind == "constant":
            at_reps = np.ones((3, r), dtype=np.complex128)
        else:
            rng = np.random.default_rng(5)
            at_reps = (rng.integers(-1, 2, (4, r))
                       + 1j * rng.integers(-1, 2, (4, r))).astype(
                           np.complex128)
            at_reps[2] = at_reps[0]
        dev_idem, dev_orth, witness = assert_same_deviations(
            h5_group, at_reps, monkeypatch)
        assert dev_orth > 0 and witness is not None
        if kind == "constant":
            # every off-diagonal product is 1: the first class, j = 0, i = 1
            assert (dev_orth, witness) == (1.0, (1, 0, 0))

    def test_forged_sum_of_two_idempotents(self, h5_group, monkeypatch):
        at_reps = characters_at_reps(h5_group)
        orbits = coadjoint_orbits(h5_group)
        i, k = [idx for idx, o in enumerate(orbits) if o.size == 25][:2]
        at_reps[i] = (at_reps[i] + at_reps[k]) / 5
        _, dev_orth, witness = assert_same_deviations(h5_group, at_reps,
                                                      monkeypatch)
        assert dev_orth > 1 and {witness[0], witness[1]} == {i, k}
