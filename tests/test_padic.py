"""Q_p algebras, p-local lattices, uniform chains, restriction harness."""

import random
from fractions import Fraction

import numpy as np
import pytest

from orbitkit import padic
from orbitkit.errors import (EquivalenceFailed, InputBoundViolation,
                             JacobiViolation, RegimeViolation,
                             ValidationFailed)
from orbitkit.padic import (PLattice, QpLieAlgebra, quotient_to_finite,
                            restriction_harness, uniform_chain)


def heis_qp(p):
    return QpLieAlgebra(p, 3, {(0, 1): {2: 1}}, label=f"heis-q{p}")


def random_vector(rng, n):
    return tuple(Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 5)))
                 for _ in range(n))


class TestQpLieAlgebra:
    def test_heisenberg_structure(self):
        alg = heis_qp(3)
        assert alg.class_ == 2
        assert alg.dimension == 3
        assert alg.bracket(alg.basis(0), alg.basis(1)) == (0, 0, 1)
        assert alg.bracket(alg.basis(1), alg.basis(0)) == (0, 0, -1)

    def test_bracket_gives_fractions(self):
        alg = QpLieAlgebra(3, 3, {(0, 1): {2: Fraction(3, 2)}})
        for u, v in ((alg.basis(0), alg.basis(1)), ((1, 2, 0), (0, 0, 5))):
            out = alg.bracket(u, v)
            assert all(type(x) is Fraction for x in out)
        assert alg.bracket(alg.basis(0), alg.basis(1)) == \
            (0, 0, Fraction(3, 2))

    def test_bracket_is_bilinear(self):
        alg = QpLieAlgebra(5, 4, {(0, 1): {2: Fraction(1, 2)},
                                  (0, 2): {3: 3}})
        rng = random.Random(7)
        for _ in range(20):
            u, v, w = (random_vector(rng, 4) for _ in range(3))
            s = Fraction(rng.randrange(-4, 5), 3)
            left = alg.bracket(tuple(a + s * b for a, b in zip(u, v)), w)
            right = tuple(a + s * b for a, b in zip(alg.bracket(u, w),
                                                    alg.bracket(v, w)))
            assert left == right

    def test_jacobi_violation_rejected(self):
        with pytest.raises(JacobiViolation):
            QpLieAlgebra(5, 3, {(0, 1): {2: 1}, (0, 2): {0: 1}})

    def test_non_nilpotent_rejected(self):
        with pytest.raises(ValidationFailed):
            QpLieAlgebra(3, 2, {(0, 1): {0: 1}})

    def test_composite_prime_rejected(self):
        # p = 9 passed the old p >= 2 check
        with pytest.raises(ValueError, match="p = 9 is not prime"):
            QpLieAlgebra(9, 3, {(0, 1): {2: 1}})

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            QpLieAlgebra(3, 2, {(1, 0): {0: 1}})
        with pytest.raises(ValueError):
            QpLieAlgebra(3, 2, {(0, 1): {5: 1}})

    def test_rational_constants_coerced(self):
        alg = QpLieAlgebra(3, 3, {(0, 1): {2: "2/3"}})
        assert alg.bracket(alg.basis(0), alg.basis(1)) \
            == (0, 0, Fraction(2, 3))


class TestPLattice:
    def test_standard_lattice(self):
        lat = PLattice(3, [[1, 0], [0, 1]])
        assert lat.basis == ((1, 0), (0, 1))
        assert (Fraction(5, 2), Fraction(7, 5)) in lat
        assert (Fraction(1, 3), 0) not in lat

    def test_canonical_under_generator_shuffle(self):
        cols = [[2, 1], [Fraction(1, 3), 0], [1, 1]]
        a = PLattice(3, cols)
        b = PLattice(3, list(reversed(cols)) + [[4, 2]])
        assert a == b
        assert hash(a) == hash(b)

    def test_coordinates_roundtrip(self):
        lat = PLattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 3)]])
        v = (Fraction(2), Fraction(-1, 2), Fraction(5, 3))
        coords = lat.coordinates(v)
        rebuilt = [sum(c * lat.basis[j][i] for j, c in enumerate(coords))
                   for i in range(3)]
        assert tuple(rebuilt) == v
        assert coords == (2, Fraction(-1, 2), 5)

    def test_scale_and_index(self):
        lat = PLattice(3, [[1, 0], [0, 1]])
        small = lat.scale(3)
        assert small.basis == ((3, 0), (0, 3))
        assert small.index_in(lat) == 9
        with pytest.raises(ValueError):
            lat.index_in(small)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValidationFailed):
            PLattice(3, [[1, 0], [2, 0]])

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            PLattice(3, [])


class TestUniformChain:
    def test_heisenberg_q3_chain(self):
        chain = uniform_chain(heis_qp(3), 4)
        diags = [[str(k.basis[r][r]) for r in range(3)] for k in chain]
        assert diags == [["1", "1", "1/3"], ["1/3", "1/3", "1/27"],
                         ["1/9", "1/9", "1/243"], ["1/27", "1/27", "1/2187"]]
        assert all(chain[j].index_in(chain[j + 1]) == 81 for j in range(3))

    def test_heisenberg_q2_chain(self):
        # p = 2 scales by 4, so k_1 sits above the standard lattice in the
        # center direction only
        chain = uniform_chain(heis_qp(2), 3)
        diags = [[str(k.basis[r][r]) for r in range(3)] for k in chain]
        assert diags == [["2", "2", "1"], ["1", "1", "1/4"],
                         ["1/2", "1/2", "1/16"]]
        assert all(chain[j].index_in(chain[j + 1]) == 16 for j in range(2))

    def test_abelian_chain(self):
        alg = QpLieAlgebra(5, 3, {})
        chain = uniform_chain(alg, 3)
        for j, lat in enumerate(chain, start=1):
            d = Fraction(1, 5 ** (j - 1))
            assert all(lat.basis[r][r] == d for r in range(3))
        assert chain[0].index_in(chain[1]) == 125

    def test_brackets_land_in_scaled_lattice(self):
        chain = uniform_chain(heis_qp(3), 3)
        for lat in chain:
            scaled = lat.scale(3)
            w = heis_qp(3).bracket(lat.basis[0], lat.basis[1])
            assert scaled.contains(w)

    def test_bad_depth_rejected(self):
        with pytest.raises(InputBoundViolation):
            uniform_chain(heis_qp(3), 0)


class TestQuotientToFinite:
    def test_heisenberg_q3_level_one(self):
        alg = heis_qp(3)
        chain = uniform_chain(alg, 1)
        ring = quotient_to_finite(chain[0], alg, 2)
        assert ring.moduli == (2, 2, 2)
        assert dict(ring.constants) == {(0, 1): {2: 3}}
        assert ring.uniform_depth == 1
        assert ring.class_ == 2

    def test_heisenberg_q2_level_one(self, rank3_z8):
        alg = heis_qp(2)
        chain = uniform_chain(alg, 1)
        ring = quotient_to_finite(chain[0], alg, 3)
        assert ring.moduli == rank3_z8.moduli
        assert dict(ring.constants) == dict(rank3_z8.constants)
        assert ring.order() == 512
        assert ring.uniform_depth == 2

    def test_non_uniform_lattice_rejected(self):
        # the standard lattice has [x, y] = z at valuation 0
        alg = heis_qp(3)
        lat = PLattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(RegimeViolation):
            quotient_to_finite(lat, alg, 2)

    def test_p2_needs_depth_two(self):
        alg = heis_qp(2)
        lat = PLattice(2, [[1, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]])
        with pytest.raises(RegimeViolation):
            quotient_to_finite(lat, alg, 3)

    def test_bad_level_rejected(self):
        alg = heis_qp(3)
        chain = uniform_chain(alg, 1)
        with pytest.raises(InputBoundViolation):
            quotient_to_finite(chain[0], alg, 0)


def recording(monkeypatch, name):
    """Record (arguments, result) of each call to padic's ``name``."""
    real, seen = getattr(padic, name), []

    def wrapper(*args):
        seen.append((args, real(*args)))
        return seen[-1][1]
    monkeypatch.setattr(padic, name, wrapper)
    return seen


def phase_keys(orbit, basis=None):
    """The characters of ``orbit`` as exact phases, one tuple each: their
    values on the rows of ``basis``, or with no ``basis`` their own
    weights, as fractions of the orbit ring's p^K."""
    big = orbit.space.ring.big
    weights = orbit.space.weights[orbit.indices]
    if basis is not None:
        weights = np.mod(weights @ basis.T, big)
    return {tuple(Fraction(int(w), big) for w in row) for row in weights}


def pair_loop(orbs_g, rows_g, orbs_k, rows_k, image, mult, tol):
    """restriction_harness's comparison as its first form made it, one orbit
    pair at a time: containment as integer sets, support as the largest
    multiplicity of the pair's table rows.  Returns (pairs, contained), or
    the text of the first disagreement."""
    cells_g = [(set(image[o.indices].tolist()), rows)
               for o, rows in zip(orbs_g, rows_g)]
    cells_k = [(set(o.indices.tolist()), rows)
               for o, rows in zip(orbs_k, rows_k)]
    pairs = contained = 0
    for a, (res_a, rows_a) in enumerate(cells_g):
        for b, (keys_b, rows_b) in enumerate(cells_k):
            inside = keys_b <= res_a
            supported = bool(np.max(np.abs(
                mult[np.ix_(rows_a, rows_b)])) > tol)
            if inside != supported:
                return (f"witness pair (orbit {a}, suborbit {b}): "
                        f"containment={inside}, "
                        f"restriction support={supported}")
            pairs += 1
            contained += inside
    return pairs, contained


def forge_support(monkeypatch):
    """Raise the last multiplicity below the tolerance to 1: a pair of
    orbits gains support that containment does not give it."""
    real = padic._multiplicity_matrix

    def forged(*args):
        mult = real(*args)
        rho, kappa = np.argwhere(np.abs(mult) <= 1e-8)[-1]
        mult[rho, kappa] = 1.0
        return mult
    monkeypatch.setattr(padic, "_multiplicity_matrix", forged)


class TestRestrictionHarness:
    def test_heisenberg_f3_center(self, h3):
        report = restriction_harness(h3, [(0, 0, 1)])
        assert report == {"alpha": 1, "orbits_g": 11, "orbits_k": 3,
                          "pairs": 33, "contained": 11,
                          "finite_shadow": True}

    def test_heisenberg_z9_scaled_whole_ring(self, z9):
        report = restriction_harness(z9, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
        assert (report["orbits_g"], report["orbits_k"]) == (105, 27)
        assert report["pairs"] == 2835
        assert report["contained"] == 153

    def test_rank3_z8_center(self, rank3_z8):
        report = restriction_harness(rank3_z8, [(0, 0, 1)])
        assert report["alpha"] == 2
        assert report["pairs"] == 128
        assert report["contained"] == 64
        assert report["orbits_k"] == 2

    @pytest.mark.parametrize("name, generators", [
        ("h3", [(0, 0, 1)]),
        ("z9", [(3, 0, 0), (0, 3, 0), (0, 0, 3)]),
        ("rank3_z8", [(0, 0, 1)]),
    ])
    def test_containment_matches_the_phase_keys(self, name, generators,
                                                request, monkeypatch):
        # the orbits and the restriction map the harness uses, recorded
        p2 = name == "rank3_z8"
        sides = recording(monkeypatch,
                          "p2_orbit_partition" if p2 else "coadjoint_orbits")
        maps = recording(monkeypatch, "restriction_indices")
        report = restriction_harness(request.getfixturevalue(name),
                                     generators)
        orbs_g, orbs_k = ([c.orbit for c in out[1]] if p2 else out
                          for _, out in sides)
        (space, basis, _), image = maps[0]
        basis = np.array(basis, dtype=np.int64).reshape(len(basis), -1)
        by_index = [set(image[o.indices].tolist()) >= set(o0.indices.tolist())
                    for o in orbs_g for o0 in orbs_k]
        by_phase = [phase_keys(o, basis) >= phase_keys(o0)
                    for o in orbs_g for o0 in orbs_k]
        assert by_index == by_phase
        assert sum(by_index) == report["contained"]
        assert orbs_g[0].space is space

    # tol = 1.5 drops the support of every multiplicity-1 pair
    @pytest.mark.parametrize("change", ["none", "tol", "forged"])
    @pytest.mark.parametrize("name, generators", [
        ("h3", [(0, 0, 1)]),
        ("z9", [(3, 0, 0), (0, 3, 0), (0, 0, 3)]),
        ("rank3_z8", [(0, 0, 1)]),
    ])
    def test_pairs_match_the_pair_loop(self, name, generators, change,
                                       request, monkeypatch):
        if change == "forged":
            forge_support(monkeypatch)
        tol = 1.5 if change == "tol" else 1e-8
        p2 = name == "rank3_z8"
        sides = recording(monkeypatch,
                          "p2_orbit_partition" if p2 else "match_tables")
        orbit_sides = recording(monkeypatch, "coadjoint_orbits")
        maps = recording(monkeypatch, "restriction_indices")
        mults = recording(monkeypatch, "_multiplicity_matrix")
        try:
            report = restriction_harness(request.getfixturevalue(name),
                                         generators, tol=tol)
            got = report["pairs"], report["contained"]
        except EquivalenceFailed as exc:
            got = str(exc)
        if p2:
            (orbs_g, rows_g), (orbs_k, rows_k) = (
                ([c.orbit for c in cells], [c.irreducibles for c in cells])
                for (_, (_, cells)) in sides)
        else:
            (orbs_g, rows_g), (orbs_k, rows_k) = (
                (orbits, [(row,) for row in matched.assignment])
                for (_, orbits), (_, matched) in zip(orbit_sides, sides))
        want = pair_loop(orbs_g, rows_g, orbs_k, rows_k, maps[0][1],
                         mults[0][1], tol)
        assert got == want
        assert isinstance(got, tuple) == (change == "none")

    def test_wrong_alpha_rejected(self, h3, rank3_z8):
        with pytest.raises(RegimeViolation):
            restriction_harness(h3, [(0, 0, 1)], alpha=2)
        with pytest.raises(RegimeViolation):
            restriction_harness(rank3_z8, [(0, 0, 1)], alpha=1)
