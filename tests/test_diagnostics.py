"""Tests for the convergence records, the classifier, and the noise model."""

import math

import numpy as np
import pytest
import scipy.special

from hilbtrunc.elements import Func, Seq, inner
from hilbtrunc.operators import (
    MultiplicationX,
    RightShift,
    SequenceLaw,
    Volterra,
    WeightedRightShift,
    constant_law,
    geometric_law,
    parse_law,
    power_law,
    shifted_power_law,
)
from hilbtrunc.bases import canonical_basis, legendre_basis, fourier_basis
from hilbtrunc.truncation import ApproxSolution, compress, solve_direct
from hilbtrunc.diagnostics import (
    ConvergenceRecord,
    NoiseModel,
    classify,
    evaluate,
    law_tail_sq,
    noise_series,
    ratio_law,
)
from oracles import noisy_pipeline_check

ZETA3 = float(scipy.special.zeta(3))


def example_62_model(nu_scale=1.0):
    return NoiseModel(
        sigma_law=power_law(1.0, 1.0),
        g_law=power_law(1.0, 2.0),
        nu_law=power_law(nu_scale, 1.5),
    )


def shift_family_series(family, n_top=40):
    """Truncations of the zero-datum shift problem with a chosen solution
    family; exact solution is zero."""
    op = (
        RightShift()
        if family == "kernel-unit"
        else WeightedRightShift(power_law(1.0, 1.0))
    )
    basis = canonical_basis()
    base = compress(op, basis, basis, n_top, Seq.zero())
    records = []
    for N in range(1, n_top + 1):
        sol = solve_direct(base.leading(N), family=family)
        records.append(
            evaluate(op, Seq.zero(), sol, basis, basis, f_exact=Seq.zero())
        )
    return records


class TestEvaluate:
    def test_first_problem_record(self):
        """Integration problem in the Legendre pair at N = 10: tiny error
        and residual, solution norm 1/sqrt(3)."""
        op = Volterra()
        leg = legendre_basis((0.0, 1.0))
        g = Func.from_poly((0.0, 1.0), [0, 0, 0.5])
        f = Func.from_poly((0.0, 1.0), [0, 1])
        sol = solve_direct(compress(op, leg, leg, 10, g))
        rec = evaluate(op, g, sol, leg, leg, f_exact=f)
        assert rec.err_norm <= 1e-6
        assert abs(rec.sol_norm - 1.0 / math.sqrt(3.0)) <= 1e-4
        assert rec.res_norm <= 1e-8

    def test_residual_only_without_exact_solution(self):
        op = Volterra()
        leg = legendre_basis((0.0, 1.0))
        g = Func.from_poly((0.0, 1.0), [0, 0, 0.5])
        sol = solve_direct(compress(op, leg, leg, 6, g))
        rec = evaluate(op, g, sol, leg, leg)
        assert rec.err_norm is None
        assert all(e is None for _, e, _ in rec.tracked_components)
        assert all(r is not None for _, _, r in rec.tracked_components)

    def test_exact_solution_gives_zero_record(self):
        op = MultiplicationX((1.0, 2.0))
        leg = legendre_basis((1.0, 2.0))
        f = Func.from_poly((1.0, 2.0), [0, 1])
        g = Func.from_poly((1.0, 2.0), [0, 0, 1])
        coeffs = np.array([inner(leg.element(n), f) for n in range(1, 4)])
        sol = ApproxSolution(coeffs, 0.0, 0)
        rec = evaluate(op, g, sol, leg, leg, f_exact=f)
        assert rec.err_norm < 1e-14 and rec.res_norm < 1e-14

    def test_shift_family_weak_residual(self):
        """The e_N family for the zero-datum shift problem: residual norm
        exactly one, components vanishing once N passes their index."""
        records = shift_family_series("kernel-unit", n_top=30)
        for rec in records:
            assert rec.res_norm == 1.0
            for n, _, res_c in rec.tracked_components:
                if rec.N >= n:
                    assert abs(res_c) == 0.0

    def test_residual_dominated_by_error(self):
        """res_norm <= ||A||_op * err_norm whenever both exist."""
        op = Volterra()
        for basis in (legendre_basis((0.0, 1.0)), fourier_basis((0.0, 1.0))):
            g = Func.from_poly((0.0, 1.0), [0, 0, 0.5])
            f = Func.from_poly((0.0, 1.0), [0, 1])
            for N in (4, 9, 17):
                sol = solve_direct(compress(op, basis, basis, N, g))
                rec = evaluate(op, g, sol, basis, basis, f_exact=f)
                assert rec.res_norm <= op.op_norm * rec.err_norm + 1e-12


class TestClassify:
    def test_unit_kernel_family_weak_not_strong(self):
        records = shift_family_series("kernel-unit")
        verdict = classify(records, "error")
        assert verdict.label == "weak-not-strong"
        assert verdict.evidence["componentwise_evidence"]

    def test_scaled_kernel_family_componentwise_not_weak(self):
        records = shift_family_series("kernel-scaled")
        verdict = classify(records, "error")
        assert verdict.label == "componentwise-not-weak"
        assert verdict.evidence["loglog_slope"] > 0.5

    def test_first_problem_error_is_strong(self):
        op = Volterra()
        leg = legendre_basis((0.0, 1.0))
        g = Func.from_poly((0.0, 1.0), [0, 0, 0.5])
        f = Func.from_poly((0.0, 1.0), [0, 1])
        records = [
            evaluate(op, g, solve_direct(compress(op, leg, leg, N, g)), leg, leg, f_exact=f)
            for N in range(2, 12)
        ]
        assert classify(records, "error").label == "strong"

    def test_strong_implies_weaker_evidence(self):
        """The evidence predicates respect strong => weak => componentwise."""
        op = Volterra()
        leg = legendre_basis((0.0, 1.0))
        g = Func.from_poly((0.0, 1.0), [0, 0, 0.5])
        f = Func.from_poly((0.0, 1.0), [0, 1])
        records = [
            evaluate(op, g, solve_direct(compress(op, leg, leg, N, g)), leg, leg, f_exact=f)
            for N in range(2, 12)
        ]
        for which in ("error", "residual"):
            ev = classify(records, which).evidence
            if ev["strong_evidence"]:
                assert ev["weak_evidence"] and ev["componentwise_evidence"]
            if ev["weak_evidence"]:
                assert ev["componentwise_evidence"]

    def test_non_vanishing_series_is_none(self):
        """A bounded norm above the strong level whose tracked component
        stays at 0.5 shows no mode of convergence."""
        records = [ConvergenceRecord(N, 1.0, 1.0, 1.0, 0.0, ((1, 0.5, 0.5),)) for N in range(1, 11)]
        for which in ("error", "residual"):
            assert classify(records, which).label == "none"

    def test_error_needs_an_exact_solution(self):
        records = [ConvergenceRecord(N, None, 1.0, 1.0, 0.0, ()) for N in range(1, 11)]
        assert classify(records, "residual").label == "weak-not-strong"  # needs none
        with pytest.raises(ValueError, match="requires err_norm"):
            classify(records, "error")

    def test_requires_enough_records(self):
        records = shift_family_series("kernel-unit", n_top=5)
        with pytest.raises(ValueError):
            classify(records, "residual")

    def test_rejects_unknown_indicator(self):
        records = shift_family_series("kernel-unit", n_top=9)
        with pytest.raises(ValueError):
            classify(records, "defect")


class TestLawTails:
    def test_power_law_tail_is_hurwitz_zeta(self):
        law = power_law(2.0, 1.5)
        expect = 4.0 * float(scipy.special.zeta(3.0, 11.0))
        assert abs(law_tail_sq(law, 10) - expect) < 1e-14

    def test_geometric_tail_closed_form(self):
        from hilbtrunc.operators import geometric_law

        law = geometric_law(1.0, 0.5)
        # sum_{n>3} 4^{-n} = (1/4)^4 / (1 - 1/4)
        assert abs(law_tail_sq(law, 3) - 0.25 ** 4 / 0.75) < 1e-15

    def test_generic_law_summed_with_bound(self):
        from hilbtrunc.operators import SequenceLaw

        law = SequenceLaw("custom", lambda n: 1.0 / (np.asarray(n, dtype=float) ** 2 + 1.0))
        direct = float(np.sum(1.0 / (np.arange(6, 400_000) ** 2 + 1.0) ** 2))
        assert abs(law_tail_sq(law, 5) - direct) < 1e-9

    def test_non_summable_is_infinite(self):
        assert law_tail_sq(power_law(1.0, 0.4), 0) == math.inf
        assert law_tail_sq(constant_law(2.0), 0) == math.inf

    @pytest.mark.parametrize("N", [0, 10, 1000])
    def test_slow_generic_tail_is_continued_geometrically(self, N):
        """n^-1.1 halves too slowly for 64 doubling intervals: the rest is
        the geometric continuation of the last two, exact for a power law."""
        law = SequenceLaw("slow", lambda n: np.asarray(n, dtype=float) ** -0.55)
        expect = float(scipy.special.zeta(1.1, N + 1))
        assert abs(law_tail_sq(law, N) - expect) <= 1e-12 * expect

    def test_generic_tail_growing_past_the_intervals_is_infinite(self):
        law = SequenceLaw("slower", lambda n: np.asarray(n, dtype=float) ** -0.45)
        assert law_tail_sq(law, 0) == math.inf

    @staticmethod
    def _slow_law_then(far):
        """n^-0.55 up to n = 1e7 and `far` past it, beyond the terms summed directly."""
        return SequenceLaw(
            "far", lambda n: np.where(np.asarray(n) > 1e7, far, np.asarray(n, dtype=float) ** -0.55)
        )

    def test_generic_law_nan_far_out_raises(self):
        with pytest.raises(ValueError, match="not a number at some n > 131072"):
            law_tail_sq(self._slow_law_then(np.nan), 0)

    def test_generic_law_infinite_far_out_is_infinite(self):
        assert law_tail_sq(self._slow_law_then(np.inf), 0) == math.inf

    def test_ratio_law_of_powers(self):
        r = ratio_law(power_law(1.0, 2.0), power_law(1.0, 1.0))
        assert r.name == "pow:1,1"
        np.testing.assert_allclose(r(np.array([2, 4])), [0.5, 0.25])


class TestExactLawParameters:
    def test_parsed_law_keeps_exact_parameters(self):
        law = parse_law("pow:1.0000001,1.5")
        assert law.name == "pow:1,1.5"
        assert (law.kind, law.params) == ("pow", (1.0000001, 1.5))
        expect = 1.0000001 ** 2 * ZETA3
        assert abs(law_tail_sq(law, 0) - expect) <= 1e-15 * expect

    def test_ratio_of_powers_uses_exact_parameters(self):
        r = ratio_law(power_law(1.0000001, 2.0), power_law(3.0, 1.0))
        assert r.name == "pow:0.333333,1"
        assert (r.kind, r.params) == ("pow", (1.0000001 / 3.0, 1.0))

    def test_ratio_of_shifted_powers_is_closed_form(self):
        r = ratio_law(shifted_power_law(1.0, 2.0), shifted_power_law(1.0, 1.0))
        assert (r.name, r.kind, r.params) == ("pow1:1,1", "pow1", (1.0, 1.0))
        np.testing.assert_allclose(r(np.array([1, 3])), [0.5, 0.25], rtol=1e-15)

    def test_ratio_of_geometric_laws_is_closed_form(self):
        """Sampled as a ratio, both parts underflow to 0/0 near n = 7000."""
        r = ratio_law(geometric_law(1.0, 0.5), geometric_law(2.0, 0.9))
        assert (r.kind, r.params) == ("geom", (0.5, 0.5 / 0.9))
        q2 = (0.5 / 0.9) ** 2
        assert abs(law_tail_sq(r, 3) - 0.25 * q2 ** 4 / (1 - q2)) <= 1e-15

    def test_tail_ends_before_the_law_underflows(self):
        """(n+1)^15 / n^16 is 0/0 past n ~ 1e19, where its tail is long
        negligible: sum_{n>N} (n+1)^30 / n^32 = sum_k C(30,k) zeta(32-k, N+1)."""
        law = ratio_law(power_law(1.0, 16.0), shifted_power_law(1.0, 15.0))
        for N in (0, 1000):
            exact = math.fsum(
                math.comb(30, k) * scipy.special.zeta(32 - k, N + 1) for k in range(31)
            )
            assert abs(law_tail_sq(law, N) - exact) <= 1e-10 * exact

    def test_law_that_is_not_a_number_raises(self):
        """n^-200 / (n+1)^-199 is 0/0 from n ~ 40 on, among the terms
        the generic tail sums: it cannot be evaluated."""
        law = ratio_law(power_law(1.0, 200.0), shifted_power_law(1.0, 199.0))
        with pytest.raises(ValueError, match="not a number"):
            law_tail_sq(law, 0)

    def test_shifted_power_noise_series_quiet(self):
        """Warnings are errors here: the generic path emitted two
        IntegrationWarnings for this model."""
        model = NoiseModel(
            sigma_law=shifted_power_law(1.0, 1.0),
            g_law=shifted_power_law(1.0, 2.0),
            nu_law=power_law(1.0, 1.5),
        )
        series = noise_series(model, 20)
        assert abs(series.beta[0] - (math.pi ** 2 / 6.0 - 1.0)) < 1e-14

    @pytest.mark.parametrize(
        "sigma", [constant_law(0.0), power_law(0.0, 1.0), geometric_law(1.0, -0.5)]
    )
    def test_sigma_must_be_positive(self, sigma):
        model = NoiseModel(sigma, power_law(1.0, 2.0), power_law(1.0, 1.5))
        with pytest.raises(ValueError, match="must be positive"):
            noise_series(model, 10)


class TestNoiseSeries:
    def test_noise_norm_is_zeta_three(self):
        model = example_62_model()
        assert abs(law_tail_sq(model.nu_law, 0) - ZETA3) < 1e-12
        assert noise_series(model, 1).solvable

    def test_beta_zero_is_basel_sum(self):
        series = noise_series(example_62_model(), 50)
        assert abs(series.beta[0] - math.pi ** 2 / 6.0) < 1e-12

    def test_residual_plateau(self):
        series = noise_series(example_62_model(), 2000)
        assert abs(series.res_sq[-1] - ZETA3) <= 0.02 * ZETA3

    def test_alpha_grows_like_log(self):
        series = noise_series(example_62_model(), 10_000)
        ratio = series.alpha[-1] / math.log(10_000.0)
        assert 0.9 <= ratio <= 1.2

    def test_beta_bounded_by_reciprocal(self):
        """beta(N) = sum_{n>N} n^-2 lies between 1/(N+1) and 1/N."""
        series = noise_series(example_62_model(), 200)
        for N in range(1, 201):
            assert 1.0 / (N + 1) <= series.beta[N] <= 1.0 / N

    def test_zero_noise_degeneration(self):
        model = example_62_model(nu_scale=0.0)
        series = noise_series(model, 100)
        np.testing.assert_allclose(series.alpha, 0.0, atol=1e-300)
        g_tails = np.array([law_tail_sq(model.g_law, N) for N in range(0, 101)])
        np.testing.assert_allclose(series.res_sq, g_tails, rtol=1e-13)
        assert all(b < a for a, b in zip(series.err_sq, series.err_sq[1:]))

    def test_semiconvergence_shape_scaled_noise(self):
        """With nu_n = 0.4 n^{-3/2} the error square strictly decreases to
        an interior minimum and strictly increases afterwards."""
        series = noise_series(example_62_model(nu_scale=0.4), 60)
        n0 = series.n_min
        assert 1 <= n0 < 60
        diffs = np.diff(series.err_sq)
        assert np.all(diffs[:n0] < 0)
        assert np.all(diffs[n0:] > 0)

    def test_non_summable_noise_rejected(self):
        bad = NoiseModel(
            sigma_law=power_law(1.0, 1.0),
            g_law=power_law(1.0, 2.0),
            nu_law=power_law(1.0, 0.5),
        )
        with pytest.raises(ValueError):
            noise_series(bad, 50)

    @pytest.mark.parametrize(
        "sigma,g,message",
        [
            (power_law(1.0, 1.0), geometric_law(1.0, 2.0), "datum law geom:1,2 is not square-summable"),
            (power_law(1.0, 1.0), constant_law(1.0), "datum law const:1 is not square-summable"),
            (geometric_law(1.0, 2.0), power_law(1.0, 2.0), "sigma law geom:1,2 is unbounded"),
            (power_law(1.0, -1.0), power_law(1.0, 2.0), "sigma law pow:1,-1 is unbounded"),
        ],
        ids=["g-geom-growing", "g-const", "sigma-geom-growing", "sigma-pow-growing"],
    )
    def test_datum_or_sigma_outside_bounded_l2_rejected(self, sigma, g, message):
        """Rejected from the law's kind and parameters, before it is
        evaluated where it overflows; warnings are errors here."""
        model = NoiseModel(sigma_law=sigma, g_law=g, nu_law=power_law(1.0, 1.5))
        with pytest.raises(ValueError, match=f"^{message}$"):
            noise_series(model, 1000)


class TestNoisyPipeline:
    def test_oracle_equivalence(self):
        op = WeightedRightShift(power_law(1.0, 1.0))
        disc = noisy_pipeline_check(op, example_62_model(), 40, tail_window=80)
        assert disc <= 1e-10

    def test_zero_noise_equivalence(self):
        op = WeightedRightShift(power_law(1.0, 1.0))
        disc = noisy_pipeline_check(op, example_62_model(nu_scale=0.0), 25, tail_window=60)
        assert disc <= 1e-12

    def test_scaled_noise_residual_plateau(self):
        """With nu_n = 0.4 n^{-3/2} the pipeline residual plateaus near
        0.16 * zeta(3)."""
        op = WeightedRightShift(power_law(1.0, 1.0))
        model = example_62_model(nu_scale=0.4)
        N_max, W = 40, 400
        trial, test = None, None
        from hilbtrunc.bases import svd_bases
        from hilbtrunc.elements import lincomb

        triple = op.exact_svd()
        trial, test = svd_bases(op)
        idx = np.arange(1, W + 1)
        g_el = lincomb(np.asarray(model.g_law(idx)), [triple.left(int(k)) for k in idx])
        nu_el = lincomb(np.asarray(model.nu_law(idx)), [triple.left(int(k)) for k in idx])
        p = compress(op, trial, test, N_max, g_el + nu_el)
        sol = solve_direct(p)
        rec = evaluate(op, g_el, sol, trial, test)
        assert abs(rec.res_norm ** 2 - 0.16 * ZETA3) < 0.01 * ZETA3

    def test_requires_exact_svd(self):
        from hilbtrunc.core import CapabilityError

        with pytest.raises(CapabilityError):
            noisy_pipeline_check(RightShift(), example_62_model(), 10)
