"""Tests for the trial/test orthonormal systems."""

import math

import numpy as np
import pytest

from hilbtrunc.core import CapabilityError, gauss_legendre, singular_values
from hilbtrunc.elements import Func, Seq, inner
from hilbtrunc.operators import (
    MultiplicationSeq,
    MultiplicationX,
    RightShift,
    Volterra,
    WeightedRightShift,
    constant_law,
    geometric_law,
    power_law,
)
from hilbtrunc.bases import (
    adversarial_test_basis,
    canonical_basis,
    fourier_basis,
    fourier_mode_number,
    krylov_basis,
    legendre_basis,
    svd_bases,
)


def gram(basis, n):
    els = basis.elements(n)
    return np.array([[inner(u, v) for v in els] for u in els])


class TestLegendreBasis:
    def test_first_element_is_constant_one(self):
        el = legendre_basis((0.0, 1.0)).element(1)
        np.testing.assert_allclose(el.eval_at(np.linspace(0, 1, 5)).real, 1.0, atol=1e-14)

    def test_second_element_closed_form(self):
        """Normalizing x - 1/2 by hand gives sqrt(3)(2x - 1)."""
        el = legendre_basis((0.0, 1.0)).element(2)
        xs = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(
            el.eval_at(xs).real, math.sqrt(3.0) * (2 * xs - 1), atol=1e-13
        )

    def test_unit_norm_at_degree_100(self):
        """Recurrence evaluation keeps the quadrature norm within 1% of 1
        even at high degree."""
        el = legendre_basis((0.0, 1.0)).element(100)
        rule = gauss_legendre(160, 0.0, 1.0)
        nrm = math.sqrt(
            float(np.sum(rule.weights * np.abs(el.eval_at(rule.nodes)) ** 2))
        )
        assert abs(nrm - 1.0) < 0.01

    def test_gram_identity(self):
        g = gram(legendre_basis((1.0, 2.0)), 30)
        np.testing.assert_allclose(g, np.eye(30), atol=1e-10)

    def test_gram_identity_under_quadrature(self):
        basis = legendre_basis((0.0, 1.0))
        rule = gauss_legendre(64, 0.0, 1.0)
        vals = np.array([basis.element(n).eval_at(rule.nodes) for n in range(1, 31)])
        g = (vals * rule.weights) @ np.conj(vals).T
        np.testing.assert_allclose(g, np.eye(30), atol=1e-10)


class TestFourierBasis:
    def test_enumeration_is_symmetric(self):
        assert [fourier_mode_number(n) for n in range(1, 8)] == [0, 1, -1, 2, -2, 3, -3]

    def test_first_element_is_constant(self):
        el = fourier_basis((1.0, 2.0)).element(1)
        np.testing.assert_allclose(el.eval_at(np.linspace(1, 2, 5)).real, 1.0, atol=1e-14)

    def test_orthonormality(self):
        g = gram(fourier_basis((0.0, 1.0)), 21)  # covers |k| <= 10
        np.testing.assert_allclose(g, np.eye(21), atol=1e-12)

    def test_gram_identity_30(self):
        g = gram(fourier_basis((1.0, 2.0)), 30)
        np.testing.assert_allclose(g, np.eye(30), atol=1e-10)

    def test_coefficients_of_x(self):
        """Integration by parts: <mode k, x> = i/(2 pi k) for k != 0 on
        [0,1], and 1/2 at k = 0."""
        basis = fourier_basis((0.0, 1.0))
        x = Func.from_poly((0.0, 1.0), [0, 1])
        assert abs(inner(basis.element(1), x) - 0.5) < 1e-14
        for n in range(2, 12):
            k = fourier_mode_number(n)
            expect = 1j / (2 * math.pi * k)
            assert abs(inner(basis.element(n), x) - expect) < 1e-13


class TestCanonicalBasis:
    def test_nat_enumeration(self):
        b = canonical_basis("nat")
        assert b.element(4).component(4) == 1.0

    def test_int_enumeration(self):
        b = canonical_basis("int")
        ks = [0, 1, -1, 2, -2]
        for n, k in enumerate(ks, start=1):
            assert b.element(n).component(k) == 1.0

    def test_rejects_unknown_domain(self):
        with pytest.raises(ValueError):
            canonical_basis("real")


class TestKrylovBasis:
    def test_volterra_krylov_spans_monomials(self):
        """Seeded with x^2/2, the space is spanned by x^2, x^3, ...: each
        monomial projects onto the first few vectors with no remainder."""
        op = Volterra()
        g = Func.from_poly((0.0, 1.0), [0, 0, 0.5])
        kb = krylov_basis(op, g, 8)
        assert kb.size == 8 and not kb.exhausted
        for d in range(2, 10):
            mono = Func.from_poly((0.0, 1.0), [0.0] * d + [1.0])
            proj = mono
            for i in range(1, min(d, kb.size) + 1):
                proj = proj - inner(kb.element(i), mono) * kb.element(i)
            assert proj.norm() < 1e-8

    def test_arnoldi_relation(self):
        op = MultiplicationX((1.0, 2.0))
        g = Func.from_poly((1.0, 2.0), [0, 0, 1])
        kb = krylov_basis(op, g, 12)
        H = kb.hessenberg
        m = H.shape[1]
        for j in range(1, m + 1):
            au = op.apply(kb.element(j))
            rec = None
            for i in range(1, min(j + 2, kb.size + 1)):
                term = H[i - 1, j - 1] * kb.element(i)
                rec = term if rec is None else rec + term
            assert (au - rec).norm() < 1e-10
        assert np.allclose(np.tril(H, -2), 0.0)  # upper Hessenberg

    def test_krylov_power_projection(self):
        """A^n g lies in the span of the first n+1 vectors."""
        op = Volterra()
        g = Func.from_poly((0.0, 1.0), [0, 0, 0.5])
        kb = krylov_basis(op, g, 10)
        power = g
        for n in range(1, 9):
            power = op.apply(power)
            resid = power
            for i in range(1, n + 2):
                resid = resid - inner(kb.element(i), power) * kb.element(i)
            assert resid.norm() < 1e-8 * max(power.norm(), 1e-12)

    def test_breakdown_on_eigenvector(self):
        op = MultiplicationSeq(constant_law(3.0))
        kb = krylov_basis(op, Seq.basis_vector(1), 5)
        assert kb.size == 1 and kb.exhausted

    def test_right_shift_seed_e2_never_reaches_e1(self):
        kb = krylov_basis(RightShift(), Seq.basis_vector(2), 7)
        for i in range(1, 8):
            assert abs(kb.element(i).component(1)) == 0.0
            assert abs(kb.element(i).component(i + 1)) == 1.0

    def test_rejects_zero_seed(self):
        with pytest.raises(ValueError):
            krylov_basis(RightShift(), Seq.zero(), 3)

    def test_size_limit_enforced(self):
        kb = krylov_basis(RightShift(), Seq.basis_vector(1), 3)
        with pytest.raises(IndexError):
            kb.element(4)


class TestSvdBases:
    def test_volterra_compression_is_diagonal(self):
        op = Volterra()
        trial, test = svd_bases(op)
        N = 6
        A = np.array(
            [
                [inner(test.element(i), op.apply(trial.element(j))) for j in range(1, N + 1)]
                for i in range(1, N + 1)
            ]
        )
        expect = np.diag([2.0 / ((2 * n - 1) * math.pi) for n in range(1, N + 1)])
        np.testing.assert_allclose(A, expect, atol=1e-13)

    def test_weighted_shift_pair(self):
        op = WeightedRightShift(geometric_law(1.0, 0.5))
        trial, test = svd_bases(op)
        assert trial.element(3).component(3) == 1.0
        assert test.element(3).component(4) == 1.0

    def test_solution_by_singular_division(self):
        """With the singular pair as trial/test the solve is entrywise
        division g_n / sigma_n."""
        op = Volterra()
        triple = op.exact_svd()
        trial, test = svd_bases(op)
        g = 0.5 * triple.left(1) + (-0.25) * triple.left(3)
        N = 4
        from hilbtrunc.truncation import compress, solve_direct

        sol = solve_direct(compress(op, trial, test, N, g))
        expect = np.zeros(N, dtype=complex)
        expect[0] = 0.5 / triple.sigma(1)
        expect[2] = -0.25 / triple.sigma(3)
        np.testing.assert_allclose(sol.f_N_coeffs, expect, atol=1e-12)

    def test_capability_absent(self):
        with pytest.raises(CapabilityError):
            svd_bases(RightShift())

    def test_gram_identity_30(self):
        trial, test = svd_bases(Volterra())
        np.testing.assert_allclose(gram(trial, 30), np.eye(30), atol=1e-10)
        np.testing.assert_allclose(gram(test, 30), np.eye(30), atol=1e-10)


class TestAdversarialBasis:
    def test_every_truncation_singular(self):
        """The defining property: sigma_min(A_N) <= 1e-10 for all N, with
        singular_values as the oracle."""
        op = Volterra()
        trial = legendre_basis((0.0, 1.0))
        n_max = 12
        test = adversarial_test_basis(op, trial, n_max, horizon=48)
        for N in range(1, n_max + 1):
            A = np.array(
                [
                    [inner(test.element(i), op.apply(trial.element(j))) for j in range(1, N + 1)]
                    for i in range(1, N + 1)
                ]
            )
            assert singular_values(A)[-1] <= 1e-10

    def test_first_vector_orthogonal_to_image(self):
        op = Volterra()
        trial = legendre_basis((0.0, 1.0))
        test = adversarial_test_basis(op, trial, 4, horizon=16)
        v1 = test.element(1)
        assert abs(v1.norm() - 1.0) < 1e-12
        assert abs(inner(v1, op.apply(trial.element(1)))) < 1e-12

    def test_family_orthonormal(self):
        op = WeightedRightShift(power_law(1.0, 1.0))
        trial = canonical_basis()
        test = adversarial_test_basis(op, trial, 8, horizon=32)
        np.testing.assert_allclose(gram(test, 8), np.eye(8), atol=1e-10)

    def test_horizon_precondition(self):
        op = Volterra()
        with pytest.raises(ValueError):
            adversarial_test_basis(op, legendre_basis((0.0, 1.0)), 10, horizon=15)


class TestCompletenessInPractice:
    @pytest.mark.parametrize("make", [legendre_basis, fourier_basis])
    @pytest.mark.parametrize("coeffs", [[0.0, 1.0], [0.0, 0.0, 1.0]])
    def test_projection_tails_shrink(self, make, coeffs):
        """The projection tail ||(1 - P_N) f|| decreases monotonically in N
        for f = x and f = x^2."""
        basis = make((0.0, 1.0))
        f = Func.from_poly((0.0, 1.0), coeffs)
        total = f.norm() ** 2
        tails = []
        captured = 0.0
        for n in range(1, 26):
            captured += abs(inner(basis.element(n), f)) ** 2
            tails.append(math.sqrt(max(total - captured, 0.0)))
        assert all(b <= a + 1e-13 for a, b in zip(tails, tails[1:]))
        assert tails[-1] <= tails[0]
