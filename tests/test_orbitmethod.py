"""Coadjoint orbits, Kirillov characters, intertwining suites, p = 2 cells."""

import itertools
import json
import math
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit import harmonic, orbitmethod
from orbitkit.cli import load_ring_spec
from orbitkit.errors import PropertyFailed, RegimeViolation, UnexpectedFailure
from orbitkit.harmonic import ADDITIVE, ClassFunction, DualSpace, inner
from orbitkit.liering import LazardGroup, make_ring
from orbitkit.oracle import character_table, conjugacy_classes, match_tables
from orbitkit.orbitmethod import (CoadjointOrbit, coadjoint_orbits,
                                  kirillov_character, p2_convolution_check,
                                  p2_orbit_partition, verify_exp_star,
                                  verify_idempotents)

SPECS = Path(__file__).resolve().parent.parent / "specs"


class TestCoadjointOrbits:
    def test_heisenberg_f3_sizes(self, h3):
        orbits = coadjoint_orbits(h3)
        assert Counter(o.size for o in orbits) == {1: 9, 9: 2}
        assert sum(o.size for o in orbits) == 27

    def test_heisenberg_f5_sizes(self, h5):
        orbits = coadjoint_orbits(h5)
        assert Counter(o.size for o in orbits) == {1: 25, 25: 4}

    def test_heisenberg_z9_sizes(self, z9):
        orbits = coadjoint_orbits(z9)
        assert Counter(o.size for o in orbits) == {1: 81, 9: 18, 81: 6}
        assert all(math.isqrt(o.size) ** 2 == o.size for o in orbits)

    def test_abelian_orbits_are_singletons(self):
        ring = make_ring(3, (1, 1), {})
        orbits = coadjoint_orbits(ring)
        assert len(orbits) == 9
        assert all(o.size == 1 for o in orbits)

    def test_orbits_partition_the_dual(self, h3):
        orbits = coadjoint_orbits(h3)
        seen = np.concatenate([o.indices for o in orbits])
        assert sorted(seen.tolist()) == list(range(27))

    def test_representative_and_indicator(self, h3):
        orbit = max(coadjoint_orbits(h3), key=lambda o: o.size)
        rep = orbit.representative()
        assert rep == orbit.space.character(int(orbit.indices[0]))
        assert rep in orbit.members
        assert sorted(orbit.indicator().support().tolist()) \
            == orbit.indices.tolist()


class TestKirillovCharacter:
    def test_degrees_on_heisenberg(self, h3, h3_group):
        chars = [kirillov_character(h3, o, group=h3_group)
                 for o in coadjoint_orbits(h3)]
        assert Counter(c.degree for c in chars) == {1: 9, 3: 2}
        assert sum(c.degree ** 2 for c in chars) == 27

    def test_degree_three_character_is_central(self, h3, h3_group):
        # chi vanishes off Z(G) and has |chi| = 3 on it
        orbit = max(coadjoint_orbits(h3), key=lambda o: o.size)
        chi = kirillov_character(h3, orbit, group=h3_group)
        E = h3_group.elements
        vals = chi.values.values
        central = (E[:, 0] == 0) & (E[:, 1] == 0)
        assert np.max(np.abs(vals[~central])) < 1e-12
        assert np.allclose(np.abs(vals[central]), 3.0)
        assert chi.values.invariant

    def test_value_at_identity_is_degree(self, h5, h5_group):
        for orbit in coadjoint_orbits(h5):
            chi = kirillov_character(h5, orbit, group=h5_group)
            idx = h5_group.index_of((0, 0, 0))
            assert abs(chi.values.values[idx] - chi.degree) < 1e-12

    def test_orthonormal_family(self, h3, h3_group):
        chars = [kirillov_character(h3, o, group=h3_group)
                 for o in coadjoint_orbits(h3)]
        for i, ci in enumerate(chars):
            for j, cj in enumerate(chars):
                target = 1.0 if i == j else 0.0
                assert abs(inner(ci.values, cj.values) - target) < 1e-9

    def test_matches_oracle_table(self, h3, h3_group):
        chars = [kirillov_character(h3, o, group=h3_group)
                 for o in coadjoint_orbits(h3)]
        report = match_tables([c.values for c in chars],
                              character_table(h3_group))
        assert report.max_deviation < 1e-8

    def test_non_square_orbit_rejected(self, h3):
        fake = CoadjointOrbit(DualSpace(h3), [0, 1])
        with pytest.raises(PropertyFailed):
            kirillov_character(h3, fake)


class TestVerifyIdempotents:
    def test_heisenberg_f3_passes(self, h3):
        report = verify_idempotents(h3)
        assert report["passed"]
        assert report["orbits"] == 11
        assert report["witness"] is None
        for key in ("fourier_indicator", "idempotent", "orthogonal",
                    "complete"):
            assert report[key] < 1e-8

    def test_reuses_supplied_orbits_and_characters(self, h5, h5_group):
        orbits = coadjoint_orbits(h5)
        chars = [kirillov_character(h5, o, group=h5_group) for o in orbits]
        report = verify_idempotents(h5, group=h5_group, orbits=orbits,
                                    characters=chars)
        assert report["passed"]
        assert report["orbits"] == 29

    def test_p2_rejected(self, rank3_z8):
        with pytest.raises(RegimeViolation):
            verify_idempotents(rank3_z8)

    def test_passes_above_the_old_table_limit(self):
        # order 3^7 = 2187 was refused by the n x n table
        ring = make_ring(3, (3, 2, 2), {(0, 1): {2: 1}})
        assert ring.order() > orbitmethod._TABLE_LIMIT
        group = LazardGroup(ring)
        report = verify_idempotents(ring, group=group)
        assert report["passed"]
        assert report["witness"] is None
        assert report["orbits"] == len(conjugacy_classes(group))
        for key in ("fourier_indicator", "idempotent", "orthogonal",
                    "complete"):
            assert report[key] < 1e-10


class TestVerifyExpStar:
    def test_heisenberg_f3_exhaustive(self, h3):
        report = verify_exp_star(h3)
        assert report["passed"]
        assert report["exhaustive"]
        assert report["classes"] == 11
        assert report["max_deviation"] < 1e-10
        assert report["pairs_checked"] == 20

    def test_explicit_invariant_pair(self, h3, h3_group):
        orbit = max(coadjoint_orbits(h3), key=lambda o: o.size)
        chi = kirillov_character(h3, orbit, group=h3_group).values
        report = verify_exp_star(h3, trials=0, group=h3_group,
                                 pairs=[(chi, chi)])
        assert report["passed"]
        assert report["pairs_checked"] == 1

    def test_non_invariant_pair_rejected(self, h3, h3_group):
        vals = np.zeros(27)
        vals[h3_group.index_of((1, 0, 0))] = 1.0
        f = ClassFunction(h3_group, vals)
        with pytest.raises(ValueError):
            verify_exp_star(h3, pairs=[(f, f)])

    def test_p2_rejected(self, rank3_z8):
        with pytest.raises(RegimeViolation):
            verify_exp_star(rank3_z8)

    def test_exact_above_the_old_table_limit(self):
        # order 3^7 = 2187 is above _TABLE_LIMIT; the check stays exact
        ring = make_ring(3, (3, 2, 2), {(0, 1): {2: 1}})
        assert ring.order() > orbitmethod._TABLE_LIMIT
        report = verify_exp_star(ring, trials=1)
        assert report["exhaustive"]
        assert report["passed"]
        assert report["pairs_checked"] == 1
        assert report["max_deviation"] == 0.0


class TestP2OrbitPartition:
    def test_rank3_z8_cells(self, rank3_z8):
        cells = p2_orbit_partition(rank3_z8)
        assert len(cells) == 64
        assert Counter(len(c.irreducibles) for c in cells) \
            == {8: 32, 2: 32}
        assert sum(c.orbit.size for c in cells) == 64

    def test_cells_cover_irreducibles_once(self, rank3_z8):
        cells = p2_orbit_partition(rank3_z8)
        seen = sorted(i for c in cells for i in c.irreducibles)
        assert seen == list(range(320))

    def test_idempotents_supported_on_even_coordinates(self, rank3_z8):
        cells = p2_orbit_partition(rank3_z8)
        group = cells[0].idempotent.domain
        odd = np.any(group.elements % 2, axis=1)
        for cell in cells[:8]:
            assert np.max(np.abs(cell.idempotent.values[odd])) == 0.0

    def test_abelian_cells(self, abelian_z4sq):
        cells = p2_orbit_partition(abelian_z4sq)
        assert len(cells) == 4
        assert Counter(len(c.irreducibles) for c in cells) == {4: 4}

    def test_odd_prime_rejected(self, h3):
        with pytest.raises(RegimeViolation):
            p2_orbit_partition(h3)

    def test_shallow_uniform_depth_rejected(self):
        # (Z/2)^2 is abelian but 4g = 0 has no room below the moduli
        ring = make_ring(2, (1, 1), {})
        with pytest.raises(RegimeViolation):
            p2_orbit_partition(ring)


class TestP2ConvolutionCheck:
    def test_rank3_z8_report(self, rank3_z8):
        report = p2_convolution_check(rank3_z8)
        assert report["passed"]
        assert report["part_b"] == "exact"
        assert report["part_a"] == "skipped"
        assert report["expected_failure"] == (8, 48, 72)
        assert report["supported_classes"] == 64
        assert report["pairs_checked"] == 64 ** 2

    def test_abelian_never_fails(self, abelian_z4sq):
        report = p2_convolution_check(abelian_z4sq)
        assert report["passed"]
        assert report["part_b"] == "exact"
        assert report["expected_failure"] is None

    def test_one_sided_at_depth_three(self):
        # abelian (Z/8)^2: depth 3 turns on the one-factor claim
        ring = make_ring(2, (3, 3), {})
        report = p2_convolution_check(ring)
        assert report["part_a"] == "exact"
        assert report["expected_failure"] is None

    def test_odd_prime_rejected(self, h3):
        with pytest.raises(RegimeViolation):
            p2_convolution_check(h3)

    def test_exact_above_the_old_table_limit(self):
        # order 2^12 = 4096 is above _TABLE_LIMIT; the check stays exact
        ring = make_ring(2, (3,) * 4, {(0, 1): {3: 4}})
        group = LazardGroup(ring)
        report = p2_convolution_check(ring, group=group)
        assert report["part_b"] == "exact"
        assert report["pairs_checked"] == report["supported_classes"] ** 2
        a, b, c = report["expected_failure"]
        # the witness, counted by hand at the one element c
        part = conjugacy_classes(group)
        H = group.elements[part.classes[a]]
        x_c = np.broadcast_to(group.elements[c], H.shape)
        in_b = part.labels == b
        by_group = in_b[group.index_batch(
            ring.ch_batch(np.mod(-H, ring._mods), x_c))]
        by_sum = in_b[group.index_batch(x_c - H)]
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


def dict_counts_check(ring, group, seed=0, t_add=None):
    """The table branch of p2_convolution_check on element-level tables, as
    it stood before the class-count check; ``t_add`` replaces the additive
    table.  Both count matrices of a class are built when it is visited."""
    n = len(group)
    part = conjugacy_classes(group, seed=seed)
    labels, r = part.labels, len(part)
    even = np.all(group.elements % 2 == 0, axis=1)
    inside = [a for a in range(r) if bool(even[part.classes[a]].all())]
    outside = [a for a in range(r) if a not in set(inside)]
    one_sided = ring.uniform_depth >= 3
    report = {"group_order": n, "classes": r, "supported_classes": len(inside),
              "part_b": None,
              "part_a": None if one_sided else "skipped",
              "expected_failure": None, "pairs_checked": 0, "passed": True}
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
            report["part_b"] = hit
            report["passed"] = False
            raise UnexpectedFailure(
                f"G^2-supported pair breaks exp* at (classes, element) "
                f"= {hit}")
    report["part_b"] = "exact"
    report["pairs_checked"] += len(inside) ** 2
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
        report["pairs_checked"] += (2 * len(inside)) * len(outside)
    search = outside if one_sided else list(range(r))
    for a in outside:
        hit = mismatch_at(a, search)
        if hit is not None:
            report["expected_failure"] = hit
            break
    return report


def _swapped_translates(h, cols):
    """harmonic.translates with two columns of h's additive row swapped,
    as if the additive table had that swap."""
    real = harmonic.translates

    def patched(domain, law, rows, cols_=None):
        out = real(domain, law, rows, cols_)
        if law == ADDITIVE:
            at = np.flatnonzero(np.arange(len(domain))[rows] == h)
            out[np.ix_(at, cols)] = out[np.ix_(at, cols[::-1])]
        return out
    return patched


def _outcome(check):
    try:
        return "report", check()
    except UnexpectedFailure as exc:
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
        new = p2_convolution_check(ring, group=group)
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
    def test_same_outcome_on_a_patched_table(self, monkeypatch, make, h, cols,
                                             kind):
        ring = make()
        group = LazardGroup(ring)
        row = group.index_of(h)
        cols = list(cols)
        t_add = ref_additive_table(group)
        t_add[row, cols] = t_add[row, cols[::-1]]
        monkeypatch.setattr(orbitmethod, "translates",
                            _swapped_translates(row, cols))
        new = _outcome(lambda: p2_convolution_check(ring, group=group))
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
def swaps(draw, n):
    """(h, [c1, c2]): two columns to swap in h's additive row."""
    c1, c2 = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                           unique=True))
    return draw(st.integers(0, n - 1)), [c1, c2]


class TestCountCheckProperties:
    """The class-count checks against element-level tables on drawn rings,
    with the additive law left alone or corrupted by one swap."""

    @pytest.mark.parametrize("corrupt", [False, True],
                             ids=["valid", "one-swap"])
    @given(data=st.data())
    def test_checks_match_the_element_level_tables(self, corrupt, data):
        ring = data.draw(small_rings())
        group = LazardGroup(ring)
        t_add = ref_additive_table(group)
        patched = orbitmethod.translates
        if corrupt:
            h, cols = data.draw(swaps(len(group)))
            t_add[h, cols] = t_add[h, cols[::-1]]
            patched = _swapped_translates(h, cols)
        with mock.patch.object(orbitmethod, "translates", patched):
            if ring.p == 2:
                new = _outcome(lambda: p2_convolution_check(ring, group=group))
                old = _outcome(lambda: dict_counts_check(ring, group,
                                                         t_add=t_add))
                assert new == old
                return
            part = conjugacy_classes(group)
            rng = np.random.default_rng(len(group))
            v1, v2 = ((rng.standard_normal(len(part))
                       + 1j * rng.standard_normal(len(part)))[part.labels]
                      for _ in range(2))
            pair = (ClassFunction(group, v1), ClassFunction(group, v2))
            report = verify_exp_star(ring, trials=3, group=group,
                                     pairs=[pair])
        t_grp = ref_group_table(group)
        witness = ref_exp_star_witness(part, t_grp, t_add)
        assert report["witness"] == witness
        assert report["passed"] == report["exhaustive"] == (witness is None)
        assert report["pairs_checked"] == (4 if witness is None else 1)
        deviation = np.max(np.abs(v1 @ v2[t_grp] - v1 @ v2[t_add]))
        assert abs(report["max_deviation"] - deviation / len(group)) < 1e-12


# -- the n x n idempotent table as a reference ---------------------------------

def idempotent_inputs(ring, group):
    orbits = coadjoint_orbits(ring)
    return orbits, [kirillov_character(ring, o, group=group) for o in orbits]


def forged(characters, i, values):
    """The characters with row i's values replaced."""
    out = list(characters)
    out[i] = orbitmethod.KirillovCharacter(
        characters[i].orbit, ClassFunction(characters[i].values.domain,
                                           values))
    return out


def table_idempotents(ring, group, orbits, characters, tol=1e-8):
    """verify_idempotents as it stood with the n x n table: every product
    e_i * e_j at every element of G, from one gathered table per j."""
    n = len(group)
    E = np.array([math.isqrt(o.size) * ch.values.values
                  for o, ch in zip(orbits, characters)])
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
    identity_target[group.index_of(ring.zero())] = n
    dev_complete = float(np.max(np.abs(E.sum(axis=0) - identity_target)))
    passed = max(dev_fourier, dev_idem, dev_orth, dev_complete) <= tol
    return {"orbits": len(E), "fourier_indicator": dev_fourier,
            "idempotent": dev_idem, "orthogonal": dev_orth,
            "complete": dev_complete, "tolerance": tol, "passed": passed,
            "witness": None if passed else witness}


def assert_agrees_with_the_table(ring):
    group = LazardGroup(ring)
    orbits, chars = idempotent_inputs(ring, group)
    new = verify_idempotents(ring, group=group, orbits=orbits,
                             characters=chars)
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
        orbits, chars = idempotent_inputs(h5, h5_group)
        i, k = [idx for idx, o in enumerate(orbits) if o.size == 25][:2]
        rows = [math.isqrt(o.size) * ch.values.values
                for o, ch in zip(orbits, chars)]
        chars = forged(chars, i, (rows[i] + rows[k]) / 5)
        report = verify_idempotents(h5, group=h5_group, orbits=orbits,
                                    characters=chars)
        # one class per block of products: the same report
        monkeypatch.setattr(orbitmethod, "_CLASS_CELLS", 1)
        assert verify_idempotents(h5, group=h5_group, orbits=orbits,
                                  characters=chars) == report
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

    def test_row_not_constant_on_a_class_fails(self, h5, h5_group):
        orbits, chars = idempotent_inputs(h5, h5_group)
        part = conjugacy_classes(h5_group)
        cls = next(c for c in part.classes if len(c) > 1)
        x = int(cls[-1])
        i = 3
        values = chars[i].values.values.copy()
        values[x] += 1e-6
        chars = forged(chars, i, values)
        report = verify_idempotents(h5, group=h5_group, orbits=orbits,
                                    characters=chars)
        assert not report["passed"]
        assert report["witness"] == (i, x)
        # the class-algebra deviations stay below the tolerance: only the
        # constancy check sees the change
        for key in ("idempotent", "orthogonal"):
            assert report[key] < 1e-8
