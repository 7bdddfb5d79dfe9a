"""Q_p algebras, p-local lattices, uniform chains, restriction harness."""

import random
from fractions import Fraction

import pytest

from orbitkit.errors import (InputBoundViolation, JacobiViolation,
                             RegimeViolation, ValidationFailed)
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

    def test_alternate_basis_choice(self):
        alg = heis_qp(3)
        chain = uniform_chain(alg, 2, basis_choice=[(1, 1, 0), (0, 1, 0),
                                                    (0, 0, 1)])
        assert len(chain) == 2
        assert chain[0].contains((0, 0, Fraction(1, 3)))

    def test_degenerate_basis_choice_rejected(self):
        with pytest.raises(ValueError):
            uniform_chain(heis_qp(3), 2, basis_choice=[(1, 0, 0), (1, 0, 0),
                                                       (0, 1, 0)])

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


class TestRestrictionHarness:
    def test_heisenberg_f3_center(self, h3):
        report = restriction_harness(h3, [(0, 0, 1)])
        assert report.alpha == 1
        assert (report.orbits_g, report.orbits_k) == (11, 3)
        assert report.pairs == 33
        assert report.contained == 11
        assert report.finite_shadow

    def test_heisenberg_z9_scaled_whole_ring(self, z9):
        report = restriction_harness(z9, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
        assert (report.orbits_g, report.orbits_k) == (105, 27)
        assert report.pairs == 2835
        assert report.contained == 153

    def test_rank3_z8_center(self, rank3_z8):
        report = restriction_harness(rank3_z8, [(0, 0, 1)])
        assert report.alpha == 2
        assert report.pairs == 128
        assert report.contained == 64
        assert report.orbits_k == 2

    def test_wrong_alpha_rejected(self, h3, rank3_z8):
        with pytest.raises(RegimeViolation):
            restriction_harness(h3, [(0, 0, 1)], alpha=2)
        with pytest.raises(RegimeViolation):
            restriction_harness(rank3_z8, [(0, 0, 1)], alpha=1)
