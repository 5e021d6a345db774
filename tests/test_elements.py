"""Tests for the exact element arithmetic underlying operators and bases."""

import math

import numpy as np
import pytest

import hilbtrunc.elements as elements
from hilbtrunc.core import SpaceMismatchError, gauss_legendre
from hilbtrunc.elements import (
    Func,
    Seq,
    inner,
    iosc,
    leg_osc_integral,
    lincomb,
    monomial_leg,
    mult_x_leg,
)
from oracles import eval_at, legendre_values


def quad_inner(u, v, order=400):
    """Quadrature oracle for the L2 inner product of two Func elements."""
    a, b = u.interval
    rule = gauss_legendre(order, a, b)
    return np.sum(rule.weights * np.conj(eval_at(u, rule.nodes)) * eval_at(v, rule.nodes))


class TestLegendreMachinery:
    def test_monomial_expansion_of_x(self):
        """x on [0,1] is L0/2 + L1/(2 sqrt 3) (normalize x - 1/2 by hand)."""
        np.testing.assert_allclose(
            monomial_leg((0.0, 1.0), 1).real,
            [0.5, 1.0 / (2.0 * math.sqrt(3.0))],
            rtol=1e-14,
        )

    def test_monomial_expansion_of_x_squared(self):
        """x^2 on [0,1] = 1/3 + (sqrt3/6) L1 + (sqrt5/30) L2, derived by
        integrating x^2 against each normalized polynomial."""
        np.testing.assert_allclose(
            monomial_leg((0.0, 1.0), 2).real,
            [1.0 / 3.0, math.sqrt(3.0) / 6.0, math.sqrt(5.0) / 30.0],
            rtol=1e-13,
        )

    def test_high_degree_monomial_stable(self):
        """Conversion of x^40 keeps the Parseval norm: ||x^40||^2 on [0,1]
        equals 1/81."""
        vec = monomial_leg((0.0, 1.0), 40)
        assert abs(np.linalg.norm(vec) ** 2 - 1.0 / 81.0) < 1e-15

    def test_mult_x_matches_pointwise(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(9)
        f = Func.from_leg((1.0, 2.0), coeffs)
        xf = Func((1.0, 2.0), mult_x_leg((1.0, 2.0), coeffs), {})
        xs = np.linspace(1.0, 2.0, 11)
        np.testing.assert_allclose(
            eval_at(xf, xs), xs * eval_at(f, xs), atol=1e-13
        )

    def test_values_orthonormal_under_quadrature(self):
        rule = gauss_legendre(40, 0.0, 1.0)
        vals = legendre_values((0.0, 1.0), 12, rule.nodes)
        gram = (vals * rule.weights) @ vals.T
        np.testing.assert_allclose(gram, np.eye(13), atol=1e-13)


class TestOscillatoryIntegrals:
    @pytest.mark.parametrize("m,w", [(0, 2 * math.pi), (1, -6 * math.pi), (3, math.pi / 2), (2, 0.2)])
    def test_iosc_matches_quadrature(self, m, w):
        rule = gauss_legendre(300, 0.0, 1.0)
        oracle = np.sum(rule.weights * rule.nodes ** m * np.exp(1j * w * rule.nodes))
        assert abs(iosc((0.0, 1.0), m, w) - oracle) < 1e-13

    def test_iosc_zero_frequency(self):
        assert abs(iosc((1.0, 2.0), 2, 0.0) - 7.0 / 3.0) < 1e-15

    @pytest.mark.parametrize("n", [0, 4, 6, 7, 15, 40])
    def test_leg_osc_integral_matches_quadrature(self, n):
        """Mixed Legendre x oscillatory moments agree with a large-order
        quadrature oracle on both sides of the first block boundary."""
        w = 14 * math.pi
        rule = gauss_legendre(600, 0.0, 1.0)
        lv = legendre_values((0.0, 1.0), n, rule.nodes)[n]
        oracle = np.sum(rule.weights * lv * np.exp(1j * w * rule.nodes))
        assert abs(leg_osc_integral((0.0, 1.0), n, 0, w)[n] - oracle) < 1e-12


class TestFunc:
    def test_inner_crosscheck_with_quadrature(self):
        rng = np.random.default_rng(11)
        u = Func((0.0, 1.0), rng.standard_normal(5), {(0, 2 * math.pi): 0.3 + 0.1j})
        v = Func((0.0, 1.0), rng.standard_normal(3), {(1, -4 * math.pi): 0.7j})
        assert abs(inner(u, v) - quad_inner(u, v)) < 1e-12

    def test_norm_parseval_for_pure_legendre(self):
        coeffs = np.array([3.0, 0.0, 4.0])
        f = Func.from_leg((0.0, 1.0), coeffs)
        assert abs(f.norm() - 5.0) < 1e-15

    def test_from_poly_evaluates_correctly(self):
        f = Func.from_poly((1.0, 2.0), [1.0, -2.0, 0.5])
        xs = np.linspace(1.0, 2.0, 9)
        np.testing.assert_allclose(
            eval_at(f, xs).real, 1.0 - 2.0 * xs + 0.5 * xs ** 2, atol=1e-13
        )

    def test_interval_mismatch_rejected(self):
        with pytest.raises(SpaceMismatchError):
            Func.from_leg((0.0, 1.0), [1.0]) + Func.from_leg((1.0, 2.0), [1.0])


def pair_loop_inner(u, v):
    """The inner product with one iosc call per pair of atoms: the
    reference the Gram-block path of Func.inner replaces."""
    total = 0.0 + 0.0j
    nmin = min(len(u.values), len(v.values))
    if nmin:
        total += np.vdot(u.values[:nmin], v.values[:nmin])
    for (m2, w2), c2 in v.osc.items():
        if c2 != 0 and len(u.values):
            moments = leg_osc_integral(u.interval, len(u.values) - 1, m2, w2)
            total += c2 * np.vdot(u.values, moments)
    for (m1, w1), c1 in u.osc.items():
        if c1 == 0:
            continue
        if len(v.values):
            moments = leg_osc_integral(u.interval, len(v.values) - 1, m1, w1)
            total += np.conj(c1) * np.vdot(moments, v.values)
        for (m2, w2), c2 in v.osc.items():
            if c2 != 0:
                total += np.conj(c1) * c2 * iosc(u.interval, m1 + m2, w2 - w1)
    return complex(total)


def random_func(rng, interval, degrees, atoms):
    """A function with `degrees` Legendre coefficients and up to `atoms`
    atoms x^m e^{iwx}, m <= 3, on a few shared frequencies (so that pair
    sums repeat and w2 - w1 can vanish), some with zero coefficients."""
    a, b = interval
    freqs = 2 * math.pi / (b - a) * np.array([-3, -1, 1, 2, 5, 40])
    osc = {}
    for _ in range(atoms):
        key = (int(rng.integers(0, 4)), float(rng.choice(freqs)))
        osc[key] = complex(rng.standard_normal(), rng.standard_normal())
        if rng.random() < 0.2:
            osc[key] = 0.0
    leg = rng.standard_normal(degrees) + 1j * rng.standard_normal(degrees)
    return Func(interval, leg, osc)


class TestFuncAtomGram:
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.0, 1.0), (1.0, 2.5)])
    def test_matches_the_pair_loop(self, interval):
        rng = np.random.default_rng(int(10 * interval[1]))
        shapes = [(0, 0), (0, 3), (1, 0), (4, 1), (6, 8), (40, 12), (0, 20)]
        for du, au in shapes:
            for dv, av in shapes:
                u = random_func(rng, interval, du, au)
                v = random_func(rng, interval, dv, av)
                ref = pair_loop_inner(u, v)
                scale = math.sqrt(
                    abs(pair_loop_inner(u, u)) * abs(pair_loop_inner(v, v))
                )
                assert abs(u.inner(v) - ref) <= 1e-13 * max(scale, 1e-300)

    def test_one_iosc_per_distinct_pair_sum(self, monkeypatch):
        """Atoms (m, w) pair into iosc(m1 + m2, w2 - w1); repeated keys
        are evaluated once per inner product."""
        keys = []

        def counted(interval, m, w):
            keys.append((m, w))
            return iosc(interval, m, w)

        monkeypatch.setattr(elements, "iosc", counted)
        w = 2 * math.pi
        u = Func((0.0, 1.0), np.zeros(0), {(0, w): 1.0, (1, 2 * w): 1.0, (0, 3 * w): 2.0})
        v = Func((0.0, 1.0), np.zeros(0), {(1, w): 1.0, (0, 2 * w): 1.0j, (1, 0.5): 0.0})
        u.inner(v)
        # the 3 x 2 nonzero pairs give 5 distinct (m1 + m2, w2 - w1)
        want = {(1, 0.0), (0, w), (2, -w), (1, -2 * w), (0, -w)}
        assert len(keys) == 5 and set(keys) == want

    def test_iosc_is_memoized(self):
        iosc.cache_clear()
        iosc((0.0, 1.0), 2, 3.5)
        iosc((0.0, 1.0), 2, 3.5)
        info = iosc.cache_info()
        assert (info.hits, info.misses) == (1, 1) and info.maxsize is not None


class TestSeq:
    def test_add_aligns_windows(self):
        a = Seq("nat", 1, np.array([1.0, 2.0]))
        b = Seq("nat", 3, np.array([5.0]))
        c = a + b
        assert c.origin == 1
        np.testing.assert_allclose(c.values.real, [1.0, 2.0, 5.0])

    def test_inner_overlap_only(self):
        a = Seq("nat", 1, np.array([1.0, 2.0, 3.0]))
        b = Seq("nat", 3, np.array([4.0, 5.0]))
        assert inner(a, b) == 12.0  # only index 3 overlaps

    def test_nat_shift_drops_below_one(self):
        a = Seq("nat", 1, np.array([1.0, 2.0]))
        shifted = a.shifted(-1)
        assert shifted.origin == 1
        np.testing.assert_allclose(shifted.values.real, [2.0])

    def test_int_domain_allows_negative_indices(self):
        a = Seq.basis_vector(-3, "int")
        assert a.component(-3) == 1.0
        assert a.shifted(-2).component(-5) == 1.0

    def test_domain_mismatch_rejected(self):
        with pytest.raises(SpaceMismatchError):
            Seq.basis_vector(1, "nat") + Seq.basis_vector(1, "int")

    def test_lincomb(self):
        out = lincomb([2.0, -1.0], [Seq.basis_vector(1), Seq.basis_vector(2)])
        np.testing.assert_allclose(out.values.real, [2.0, -1.0])

    def test_lincomb_of_sequences_that_store_nothing(self):
        out = lincomb([2.0, -1.0], [Seq.zero(), Seq.zero()])
        assert (out.origin, len(out.values), out.norm()) == (1, 0, 0.0)

    def test_adding_zero_copies_the_other_window(self):
        a = Seq("nat", 2, np.array([1.0, -3.0]))
        for total in (a + Seq.zero(), Seq.zero() + a):
            assert total.origin == 2 and np.array_equal(total.values, a.values)
            assert not np.shares_memory(total.values, a.values)

    def test_inner_of_a_sequence_and_a_function_rejected(self):
        with pytest.raises(SpaceMismatchError):
            inner(Seq.basis_vector(1), Func.from_poly((0.0, 1.0), [1.0]))
