"""Pontryagin duality: characters, transforms, convolutions, Parseval."""

import numpy as np
import pytest

from orbitkit.errors import DomainMismatch
from orbitkit.harmonic import (ADDITIVE, GROUP, ClassFunction, DualFunction,
                               DualSpace, convolve, exp_star, fourier,
                               inverse_fourier, translates)
from orbitkit.liering import LazardGroup, make_ring

from conftest import as_function, ch, character_values, inner, phases


# -- references: the inverses and partners of the library functions -----------

def log_star(f, group):
    """Push a ring-side function forward to the group along exp."""
    if isinstance(f.domain, LazardGroup):
        raise DomainMismatch("log_star expects a ring-domain function")
    if group.ring is not f.domain:
        raise DomainMismatch("group does not lie over the function's ring")
    return ClassFunction(group, f.values)


def dual_inner(F1, F2):
    """sum F1 conj(F2) with counting measure, the Parseval partner of inner."""
    if F1.ring is not F2.ring:
        raise DomainMismatch("dual inner product needs a shared ring")
    return complex(np.vdot(F2.values, F1.values))


def grid_rows(domain):
    """The grid's coordinate rows, shared by a ring and its group."""
    return getattr(domain, "ring", domain).grid.elements


def random_function(domain, seed):
    rng = np.random.default_rng(seed)
    n = len(grid_rows(domain))
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ClassFunction(domain, vals)


def delta(domain, coords):
    table = grid_rows(domain)
    vals = np.zeros(len(table), dtype=np.complex128)
    idx = int(np.nonzero((table == np.asarray(coords)).all(axis=1))[0][0])
    vals[idx] = 1.0
    return ClassFunction(domain, vals), idx


class TestDualCharacter:
    """Pairings read from DualSpace weights (conftest ``phases``)."""

    def test_exponents_reduce_mod_sizes(self, h3):
        space = DualSpace(h3)
        index = h3.grid.index_batch((4, -1, 3))
        assert tuple(space.exponents[index]) == (1, 2, 0)
        assert np.array_equal(phases(space, (4, -1, 3), h3.grid.elements),
                              phases(space, (1, 2, 0), h3.grid.elements))

    def test_rank_mismatch_rejected(self, h3):
        with pytest.raises(ValueError):
            h3.grid.index_batch((1, 2))

    def test_value_at_zero_is_one(self, z9):
        assert character_values(DualSpace(z9), (5, 1, 7), (0, 0, 0)) == 1.0

    def test_phases_are_additive(self, z9):
        # chi(x + y) = chi(x) chi(y), checked on exact exponents in Z/9
        space = DualSpace(z9)
        rng = np.random.default_rng(3)
        table = z9.grid.elements
        for _ in range(40):
            x = table[rng.integers(len(table))]
            y = table[rng.integers(len(table))]
            s = z9.add(tuple(x), tuple(y))
            assert (phases(space, (2, 7, 5), x)
                    + phases(space, (2, 7, 5), y)) % z9.big \
                == phases(space, (2, 7, 5), s)

    def test_pointwise_product_is_exponent_sum(self, h3):
        a, b = (1, 2, 0), (2, 2, 1)
        space = DualSpace(h3)
        table = h3.grid.elements
        pa = phases(space, a, table)
        pb = phases(space, b, table)
        psum = phases(space, tuple(u + v for u, v in zip(a, b)), table)
        assert np.array_equal((pa + pb) % h3.big, psum)

    def test_values_are_roots_of_unity(self):
        # mixed moduli: weights stretch the small factor into Z/9
        ring = make_ring(3, (2, 1), {})
        vals = character_values(DualSpace(ring), (1, 1), ring.grid.elements)
        assert np.allclose(np.abs(vals), 1.0)
        assert np.allclose(vals ** ring.big, 1.0)

    def test_character_sum_vanishes_off_zero(self, h3):
        space = DualSpace(h3)
        table = h3.grid.elements
        for exponents in space.exponents:
            total = character_values(space, exponents, table).sum()
            if not exponents.any():
                assert abs(total - h3.order()) < 1e-9
            else:
                assert abs(total) < 1e-9


class TestDualSpace:
    def test_size_matches_order(self, z9):
        assert len(DualSpace(z9)) == z9.order()

    def test_index_roundtrip(self, z9):
        space = DualSpace(z9)
        for i in range(0, len(space), 37):
            assert z9.grid.index_batch(space.exponents[i]) == i

    def test_index_batch_matches_scalar(self, h3):
        rng = np.random.default_rng(11)
        A = rng.integers(0, 9, size=(20, 3))
        batch = h3.grid.index_batch(A)
        assert all(batch[k] == h3.grid.index_batch(A[k])
                   for k in range(len(A)))

    def test_weights_give_pairing_exponents(self, z9):
        # sum_i a_i x_i p^{K-k_i} mod p^K, in Python integers
        space = DualSpace(z9)
        x = np.array([4, 7, 2])
        for i in (0, 5, 100, 700):
            direct = sum(int(a) * int(v) * (z9.big // s) for a, v, s
                         in zip(space.exponents[i], x, z9.sizes)) % z9.big
            assert (space.weights[i] @ x) % z9.big == direct

    def test_element_table_aligns_with_group(self, h3, h3_group):
        assert DualSpace(h3).exponents is h3_group.elements


class TestFourier:
    def test_character_transforms_to_point_mass(self, h3):
        space = DualSpace(h3)
        idx = h3.grid.index_batch((2, 1, 0))
        F = fourier(as_function(h3, (2, 1, 0)))
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
        X = h3.grid.elements
        vals = (character_values(space, space.exponents[4], X)
                + 2 * character_values(space, space.exponents[19], X))
        F = fourier(ClassFunction(h3, vals))
        assert np.flatnonzero(np.abs(F.values) > 1e-9).tolist() == [4, 19]

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
        target = h3_group.ring.grid.index_batch(ch(h3_group.ring, a, b))
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


class TestExpLogStar:
    def test_relabel_roundtrip(self, h3, h3_group):
        f = random_function(h3, 4)
        lifted = log_star(f, h3_group)
        assert isinstance(lifted.domain, LazardGroup)
        back = exp_star(lifted)
        assert back.domain is h3
        assert np.array_equal(back.values, f.values)

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

