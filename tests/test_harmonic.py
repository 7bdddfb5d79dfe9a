"""Pontryagin duality: characters, transforms, convolutions, Parseval."""

import numpy as np
import pytest

from orbitkit.errors import DomainMismatch
from orbitkit.harmonic import (ADDITIVE, GROUP, ClassFunction, DualCharacter,
                               DualFunction, DualSpace, convolve,
                               element_table, exp_star, fourier, inner,
                               inverse_fourier, translates)
from orbitkit.liering import LazardGroup, make_ring


# -- references: the inverses and partners of the library functions -----------

def enumerate_dual(ring):
    """All |g| characters of (g, +), lexicographic in exponents."""
    space = DualSpace(ring)
    return [space.character(i) for i in range(len(space))]


def log_star(f, group):
    """Push a ring-side function forward to the group along exp."""
    if isinstance(f.domain, LazardGroup):
        raise DomainMismatch("log_star expects a ring-domain function")
    if group.ring is not f.domain:
        raise DomainMismatch("group does not lie over the function's ring")
    return ClassFunction(group, f.values, tolerance=f.tolerance,
                         invariant=f.invariant)


def dual_inner(F1, F2):
    """sum F1 conj(F2) with counting measure, the Parseval partner of inner."""
    if F1.ring is not F2.ring:
        raise DomainMismatch("dual inner product needs a shared ring")
    return complex(np.vdot(F2.values, F1.values))


def random_function(domain, seed, *, invariant=False):
    rng = np.random.default_rng(seed)
    n = len(element_table(domain))
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ClassFunction(domain, vals, invariant=invariant)


def delta(domain, coords):
    table = element_table(domain)
    vals = np.zeros(len(table), dtype=np.complex128)
    idx = int(np.nonzero((table == np.asarray(coords)).all(axis=1))[0][0])
    vals[idx] = 1.0
    return ClassFunction(domain, vals), idx


class TestDualCharacter:
    def test_exponents_reduce_mod_sizes(self, h3):
        chi = DualCharacter(h3, (4, -1, 3))
        assert chi.exponents == (1, 2, 0)

    def test_rank_mismatch_rejected(self, h3):
        with pytest.raises(ValueError):
            DualCharacter(h3, (1, 2))

    def test_value_at_zero_is_one(self, z9):
        chi = DualCharacter(z9, (5, 1, 7))
        assert chi.value((0, 0, 0)) == 1.0

    def test_phases_are_additive(self, z9):
        # chi(x + y) = chi(x) chi(y), checked on exact exponents in Z/9
        chi = DualCharacter(z9, (2, 7, 5))
        rng = np.random.default_rng(3)
        table = element_table(z9)
        for _ in range(40):
            x = table[rng.integers(len(table))]
            y = table[rng.integers(len(table))]
            s = z9.add(tuple(x), tuple(y))
            assert (chi.phase_on(x) + chi.phase_on(y)) % z9.big \
                == chi.phase_on(s)

    def test_pointwise_product_is_exponent_sum(self, h3):
        a, b = (1, 2, 0), (2, 2, 1)
        table = element_table(h3)
        pa = DualCharacter(h3, a).phase_on(table)
        pb = DualCharacter(h3, b).phase_on(table)
        psum = DualCharacter(h3, tuple(u + v for u, v in zip(a, b)))
        assert np.array_equal((pa + pb) % h3.big, psum.phase_on(table))

    def test_values_are_roots_of_unity(self):
        # mixed moduli: weights stretch the small factor into Z/9
        ring = make_ring(3, (2, 1), {})
        chi = DualCharacter(ring, (1, 1))
        vals = chi.values_on(element_table(ring))
        assert np.allclose(np.abs(vals), 1.0)
        assert np.allclose(vals ** ring.big, 1.0)

    def test_character_sum_vanishes_off_zero(self, h3):
        table = element_table(h3)
        for chi in enumerate_dual(h3):
            total = chi.values_on(table).sum()
            if chi.exponents == (0, 0, 0):
                assert abs(total - h3.order()) < 1e-9
            else:
                assert abs(total) < 1e-9

    def test_as_function_rejects_foreign_domain(self, h3, h5):
        chi = DualCharacter(h3, (1, 0, 0))
        with pytest.raises(DomainMismatch):
            chi.as_function(h5)

    def test_equality_and_hash(self, h3):
        assert DualCharacter(h3, (1, 2, 0)) == DualCharacter(h3, (4, -1, 3))
        assert hash(DualCharacter(h3, (1, 2, 0))) \
            == hash(DualCharacter(h3, (4, -1, 3)))
        assert DualCharacter(h3, (1, 2, 0)) != DualCharacter(h3, (1, 2, 1))


class TestDualSpace:
    def test_size_matches_order(self, z9):
        assert len(DualSpace(z9)) == z9.order()

    def test_index_roundtrip(self, z9):
        space = DualSpace(z9)
        for i in range(0, len(space), 37):
            assert space.index_of(space.exponents[i]) == i
            assert space.character(i).exponents == tuple(space.exponents[i])

    def test_index_batch_matches_scalar(self, h3):
        space = DualSpace(h3)
        rng = np.random.default_rng(11)
        A = rng.integers(0, 9, size=(20, 3))
        batch = space.index_batch(A)
        assert all(batch[k] == space.index_of(A[k]) for k in range(len(A)))

    def test_weights_give_pairing_exponents(self, z9):
        space = DualSpace(z9)
        x = np.array([4, 7, 2])
        for i in (0, 5, 100, 700):
            chi = space.character(i)
            assert (space.weights[i] @ x) % z9.big == chi.phase_on(x)

    def test_element_table_aligns_with_group(self, h3, h3_group):
        assert np.array_equal(element_table(h3), h3_group.elements)
        assert np.array_equal(element_table(h3_group), h3_group.elements)


class TestFourier:
    def test_character_transforms_to_point_mass(self, h3):
        space = DualSpace(h3)
        idx = space.index_of((2, 1, 0))
        F = fourier(space.character(idx).as_function())
        expected = np.zeros(len(space))
        expected[idx] = 1.0
        assert np.allclose(F.values, expected, atol=1e-12)

    def test_roundtrip(self, h3):
        f = random_function(h3, 7)
        back = inverse_fourier(fourier(f))
        assert np.allclose(back.values, f.values, atol=1e-10)

    def test_group_domain_rejected(self, h3_group):
        f = random_function(h3_group, 2)
        with pytest.raises(DomainMismatch):
            fourier(f)

    def test_support_counts_nonzero_coefficients(self, h3):
        space = DualSpace(h3)
        vals = (space.character(4).values_on(element_table(h3))
                + 2 * space.character(19).values_on(element_table(h3)))
        F = fourier(ClassFunction(h3, vals))
        assert sorted(F.support().tolist()) == [4, 19]

    def test_parseval(self, h3):
        f1 = random_function(h3, 5)
        f2 = random_function(h3, 6)
        F1, F2 = fourier(f1), fourier(f2)
        assert abs(inner(f1, f2) - dual_inner(F1, F2)) < 1e-10
        assert abs(inner(f1, f1) - dual_inner(F1, F1)) < 1e-10

    def test_dual_inner_rejects_mixed_rings(self, h3, h5):
        F1 = DualFunction(h3, np.zeros(27))
        F2 = DualFunction(h5, np.zeros(125))
        with pytest.raises(DomainMismatch):
            dual_inner(F1, F2)


class TestAdditiveTranslates:
    """The per-coordinate tables give the same indices as reducing the
    differences x_c - x_h with the grid's index_batch."""

    @pytest.mark.parametrize("p, moduli, brackets", [
        (3, (3, 2, 2), {(0, 1): {2: 1}}),
        (3, (2, 1, 1), {(1, 2): {0: 3}}),
        (2, (3, 1, 2), {}),
        (5, (1, 2), {}),
    ], ids=["3^(3,2,2)", "3^(2,1,1)", "2^(3,1,2)", "5^(1,2)"])
    def test_equal_index_batch_on_mixed_moduli(self, p, moduli, brackets):
        ring = make_ring(p, moduli, brackets)
        E = ring.grid.elements
        rng = np.random.default_rng(len(E))
        cases = [(rng.integers(0, len(E), 40), None),
                 (rng.integers(0, len(E), 40), rng.integers(0, len(E), 70)),
                 (slice(None), np.arange(len(E))[::-3])]
        for domain in (ring, LazardGroup(ring)):
            for rows, cols in cases:
                got = translates(domain, ADDITIVE, rows, cols)
                C = E if cols is None else E[cols]
                want = ring.grid.index_batch(C[None] - E[rows][:, None])
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


class TestConvolution:
    def test_additive_deltas_translate(self, z9):
        f1, _ = delta(z9, (1, 2, 0))
        f2, _ = delta(z9, (3, 8, 4))
        conv = convolve(f1, f2, ADDITIVE)
        _, target = delta(z9, z9.add((1, 2, 0), (3, 8, 4)))
        expected = np.zeros(z9.order(), dtype=np.complex128)
        expected[target] = 1.0 / z9.order()
        assert np.allclose(conv.values, expected, atol=1e-12)

    def test_additive_convolution_diagonalizes(self, h3):
        f1 = random_function(h3, 8)
        f2 = random_function(h3, 9)
        lhs = fourier(convolve(f1, f2, ADDITIVE)).values
        rhs = fourier(f1).values * fourier(f2).values
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_group_deltas_compose_by_ch(self, h3_group):
        a, b = (1, 0, 0), (0, 1, 0)
        fa, _ = delta(h3_group, a)
        fb, _ = delta(h3_group, b)
        conv = convolve(fa, fb, GROUP)
        target = h3_group.index_of(h3_group.multiply(a, b))
        expected = np.zeros(len(h3_group), dtype=np.complex128)
        expected[target] = 1.0 / len(h3_group)
        assert np.allclose(conv.values, expected, atol=1e-12)

    def test_group_law_is_noncommutative_on_heisenberg(self, h3_group):
        fa, _ = delta(h3_group, (1, 0, 0))
        fb, _ = delta(h3_group, (0, 1, 0))
        lhs = convolve(fa, fb, GROUP).values
        rhs = convolve(fb, fa, GROUP).values
        assert not np.allclose(lhs, rhs)

    def test_group_law_needs_group_domain(self, h3):
        f = random_function(h3, 1)
        with pytest.raises(DomainMismatch):
            convolve(f, f, GROUP)

    def test_unknown_law_rejected(self, h3):
        f = random_function(h3, 1)
        with pytest.raises(ValueError):
            convolve(f, f, "multiplicative")

    def test_mismatched_domains_rejected(self, h3, h3_group):
        f1 = random_function(h3, 1)
        f2 = random_function(h3_group, 1)
        with pytest.raises(DomainMismatch):
            convolve(f1, f2, ADDITIVE)

    def test_invariance_flag_propagates(self, h3):
        f1 = random_function(h3, 1, invariant=True)
        f2 = random_function(h3, 2, invariant=True)
        f3 = random_function(h3, 3)
        assert convolve(f1, f2, ADDITIVE).invariant
        assert not convolve(f1, f3, ADDITIVE).invariant


class TestExpLogStar:
    def test_relabel_roundtrip(self, h3, h3_group):
        f = random_function(h3, 4, invariant=True)
        lifted = log_star(f, h3_group)
        assert isinstance(lifted.domain, LazardGroup)
        back = exp_star(lifted)
        assert back.domain is h3
        assert np.array_equal(back.values, f.values)
        assert back.invariant

    def test_exp_star_rejects_ring_domain(self, h3):
        with pytest.raises(DomainMismatch):
            exp_star(random_function(h3, 1))

    def test_log_star_rejects_group_domain(self, h3_group):
        f = random_function(h3_group, 1)
        with pytest.raises(DomainMismatch):
            log_star(f, h3_group)

    def test_log_star_rejects_foreign_group(self, h3, h5_group):
        with pytest.raises(DomainMismatch):
            log_star(random_function(h3, 1), h5_group)

    def test_exp_star_rejects_foreign_ring(self, h3_group, h5):
        f = random_function(h3_group, 1)
        with pytest.raises(DomainMismatch):
            exp_star(f, h5)
