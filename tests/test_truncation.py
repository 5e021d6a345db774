"""Tests for compression, lifting, and the three solver paths."""

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
    power_law,
)
from hilbtrunc.bases import canonical_basis, fourier_basis, krylov_basis, legendre_basis, svd_bases
from hilbtrunc.truncation import (
    ApproxSolution,
    compress,
    lift,
    solve_cg,
    solve_direct,
    solve_gmres,
)


class TestCompress:
    def test_weighted_shift_canonical_matrix(self):
        """The canonical compression of the weighted shift is the block
        with the weights on the sub-diagonal and a zero last column."""
        op = WeightedRightShift(power_law(1.0, 1.0))
        basis = canonical_basis()
        p = compress(op, basis, basis, 5, Seq.zero())
        expect = np.zeros((5, 5))
        for n in range(1, 5):
            expect[n, n - 1] = 1.0 / n
        np.testing.assert_allclose(p.A_N, expect, atol=1e-15)

    def test_multiplication_law_gives_diagonal(self):
        op = MultiplicationSeq(power_law(1.0, 1.0))
        basis = canonical_basis()
        p = compress(op, basis, basis, 6, Seq.zero())
        np.testing.assert_allclose(
            p.A_N, np.diag([1.0 / n for n in range(1, 7)]), atol=1e-15
        )

    def test_volterra_svd_bases_diagonal(self):
        op = Volterra()
        trial, test = svd_bases(op)
        p = compress(op, trial, test, 5, Func.zero((0.0, 1.0)))
        expect = np.diag([2.0 / ((2 * n - 1) * math.pi) for n in range(1, 6)])
        np.testing.assert_allclose(p.A_N, expect, atol=1e-13)

    def test_entries_match_independent_recomputation(self):
        """Spot-check A_N[i][j] = <v_i, A u_j> against a quadrature oracle."""
        op = Volterra()
        leg = legendre_basis((0.0, 1.0))
        p = compress(op, leg, leg, 6, Func.zero((0.0, 1.0)))
        rule = gauss_legendre(80, 0.0, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(8):
            i, j = rng.integers(1, 7, size=2)
            au = op.apply(leg.element(int(j)))
            oracle = np.sum(
                rule.weights
                * np.conj(leg.element(int(i)).eval_at(rule.nodes))
                * au.eval_at(rule.nodes)
            )
            assert abs(p.A_N[i - 1, j - 1] - oracle) < 1e-12

    def test_space_mismatch_rejected(self):
        with pytest.raises(CapabilityError):
            compress(Volterra(), canonical_basis(), canonical_basis(), 3, Seq.zero())

    def test_projected_datum_warns_and_proceeds(self):
        op = Volterra()
        leg = legendre_basis((0.0, 1.0))
        datum = Func.from_callable(np.exp, (0.0, 1.0), degree=12)
        with pytest.warns(UserWarning):
            p = compress(op, leg, leg, 4, datum)
        assert p.N == 4

    def test_entries_read_only(self):
        op = MultiplicationSeq(power_law(1.0, 1.0))
        basis = canonical_basis()
        p = compress(op, basis, basis, 4, Seq("nat", 1, np.ones(4)))
        for q in (p, p.leading(2)):
            with pytest.raises(ValueError):
                q.A_N[0, 0] = 2.0
            with pytest.raises(ValueError):
                q.g_N[0] = 2.0

    @pytest.mark.parametrize("makebasis", [legendre_basis, fourier_basis])
    def test_leading_block_is_the_smaller_compression(self, makebasis):
        """Slicing the N=9 compression equals compressing at N, bit for bit."""
        op = Volterra()
        basis = makebasis((0.0, 1.0))
        g = Func.from_poly((0.0, 1.0), [0, 0, 0.5])
        base = compress(op, basis, basis, 9, g)
        for N in (1, 4, 9):
            sub, direct = base.leading(N), compress(op, basis, basis, N, g)
            assert sub.N == N
            assert np.array_equal(sub.A_N, direct.A_N)
            assert np.array_equal(sub.g_N, direct.g_N)
            assert (sub.trial, sub.test, sub.operator) == (
                direct.trial, direct.test, direct.operator
            )

    @pytest.mark.parametrize("N", [0, 5])
    def test_leading_rejects_sizes_outside_the_compression(self, N):
        basis = canonical_basis()
        p = compress(RightShift(), basis, basis, 4, Seq.zero())
        with pytest.raises(ValueError):
            p.leading(N)


class TestLift:
    def test_zero_coefficients(self):
        sol = ApproxSolution(np.zeros(3), 0.0, "qr", 0)
        el = lift(sol, legendre_basis((0.0, 1.0)))
        assert el.norm() < 1e-15

    def test_canonical_padding(self):
        sol = ApproxSolution(np.array([1.0, 2.0]), 0.0, "qr", 0)
        el = lift(sol, canonical_basis())
        assert el.component(1) == 1.0 and el.component(2) == 2.0 and el.component(3) == 0.0

    def test_norm_preserved(self):
        vals = np.array([0.3, -0.4j, 1.2])
        sol = ApproxSolution(vals, 0.0, "qr", 0)
        el = lift(sol, fourier_basis((0.0, 1.0)))
        assert abs(el.norm() - np.linalg.norm(vals)) < 1e-12

    def test_legendre_projection_of_x_reproduces_it(self):
        """x = L0/2 + L1/(2 sqrt 3): the lift of its projection matches x
        at quadrature nodes for every N >= 2."""
        basis = legendre_basis((0.0, 1.0))
        coeffs = np.array([0.5, 1.0 / (2.0 * math.sqrt(3.0))])
        rule = gauss_legendre(20, 0.0, 1.0)
        for N in (2, 3, 6):
            padded = np.zeros(N, dtype=complex)
            padded[:2] = coeffs
            sol = ApproxSolution(padded, 0.0, "qr", 0)
            el = lift(sol, basis)
            np.testing.assert_allclose(
                el.eval_at(rule.nodes).real, rule.nodes, atol=1e-12
            )


class TestSolveDirect:
    def test_diagonal_problem_componentwise(self):
        """diag(1/n) against g_n = 1/n^2 has solution f_n = 1/n."""
        op = MultiplicationSeq(power_law(1.0, 1.0))
        basis = canonical_basis()
        N = 8
        g = Seq("nat", 1, np.array([1.0 / n ** 2 for n in range(1, N + 1)]))
        sol = solve_direct(compress(op, basis, basis, N, g))
        np.testing.assert_allclose(
            sol.f_N_coeffs, [1.0 / n for n in range(1, N + 1)], rtol=1e-12
        )

    def test_singular_problem_min_norm_default(self):
        op = WeightedRightShift(power_law(1.0, 1.0))
        basis = canonical_basis()
        sol = solve_direct(compress(op, basis, basis, 6, Seq.zero()))
        np.testing.assert_allclose(sol.f_N_coeffs, 0.0, atol=1e-14)

    def test_kernel_families(self):
        """kernel-unit adds e_N, kernel-scaled adds N e_N (the kernel of
        the shift block is exactly the last canonical vector)."""
        op = WeightedRightShift(power_law(1.0, 1.0))
        basis = canonical_basis()
        p = compress(op, basis, basis, 6, Seq.zero())
        unit = solve_direct(p, family="kernel-unit").f_N_coeffs
        expect = np.zeros(6, dtype=complex)
        expect[5] = 1.0
        np.testing.assert_allclose(unit, expect, atol=0)
        scaled = solve_direct(p, family="kernel-scaled").f_N_coeffs
        np.testing.assert_allclose(scaled, 6.0 * expect, atol=0)

    def test_kernel_family_on_nonsingular_problem_is_noop(self):
        op = MultiplicationSeq(power_law(1.0, 1.0))
        basis = canonical_basis()
        g = Seq("nat", 1, np.ones(4))
        p = compress(op, basis, basis, 4, g)
        np.testing.assert_allclose(
            solve_direct(p, family="kernel-unit").f_N_coeffs,
            solve_direct(p).f_N_coeffs,
            atol=1e-14,
        )

    def test_unknown_family_rejected(self):
        op = MultiplicationSeq(power_law(1.0, 1.0))
        p = compress(op, canonical_basis(), canonical_basis(), 3, Seq.zero())
        with pytest.raises(ValueError):
            solve_direct(p, family="largest")

    def test_svd_frame_solution_is_singular_division(self):
        op = Volterra()
        triple = op.exact_svd()
        trial, test = svd_bases(op)
        g = op.apply(Func.from_poly((0.0, 1.0), [0, 1]))  # datum x^2/2 in ran V
        sol = solve_direct(compress(op, trial, test, 5, g))
        for n in range(1, 6):
            gn = inner(test.element(n), g)
            assert abs(sol.f_N_coeffs[n - 1] - gn / triple.sigma(n)) < 1e-12

    def test_eps_norm_recomputable(self):
        op = Volterra()
        leg = legendre_basis((0.0, 1.0))
        g = Func.from_poly((0.0, 1.0), [0, 0, 0.5])
        p = compress(op, leg, leg, 7, g)
        sol = solve_direct(p)
        recomputed = np.linalg.norm(p.A_N @ sol.f_N_coeffs - p.g_N)
        assert abs(sol.eps_norm - recomputed) < 1e-12


class TestSolveGmres:
    def test_multiplication_problem_converges(self):
        op = MultiplicationX((1.0, 2.0))
        g = Func.from_poly((1.0, 2.0), [0, 0, 1])
        sols, _ = solve_gmres(op, g, 50, tol=1e-10)
        assert sols[-1].eps_norm <= 1e-10
        assert len(sols) <= 50

    def test_residuals_monotone(self):
        op = MultiplicationX((1.0, 2.0))
        g = Func.from_poly((1.0, 2.0), [0, 0, 1])
        res = [s.eps_norm for s in solve_gmres(op, g, 30, tol=0.0)[0]]
        assert all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(res, res[1:]))

    def test_identity_like_operator_converges_in_one_step(self):
        op = MultiplicationSeq(constant_law(1.0))
        g = Seq("nat", 1, np.array([1.0, -2.0, 0.5]))
        sols, _ = solve_gmres(op, g, 5, tol=1e-12)
        assert sols[0].eps_norm < 1e-13

    def test_volterra_is_slow(self):
        op = Volterra()
        g = Func.from_poly((0.0, 1.0), [0, 0, 0.5])
        sols, _ = solve_gmres(op, g, 100, tol=1e-10)
        assert len(sols) == 100
        assert sols[-1].eps_norm > 1e-10
        res = [s.eps_norm for s in sols]
        assert all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(res, res[1:]))

    def test_reported_residual_is_ambient_residual(self):
        op = MultiplicationX((1.0, 2.0))
        g = Func.from_poly((1.0, 2.0), [0, 0, 1])
        sols, kb = solve_gmres(op, g, 8, tol=0.0)
        for sol in sols[:6]:
            fhat = lift(sol, kb)
            assert abs(sol.eps_norm - (g - op.apply(fhat)).norm()) < 1e-12

    @pytest.mark.parametrize(
        "opname,interval,gcoeffs",
        [("volterra", (0.0, 1.0), [0, 0, 0.5]), ("mult", (1.0, 2.0), [0, 0, 1])],
    )
    def test_matches_direct_least_squares_over_krylov_space(
        self, opname, interval, gcoeffs
    ):
        """GMRES step-n residual equals the minimum of ||A x - g|| over the
        Krylov space, computed independently by orthogonally projecting g
        onto the span of the image vectors A u_1, ..., A u_n."""
        op = Volterra() if opname == "volterra" else MultiplicationX(interval)
        g = Func.from_poly(interval, gcoeffs)
        n_max = 30
        sols, kb = solve_gmres(op, g, n_max, tol=0.0)
        assert len(sols) >= 12
        frame = []  # Gram-Schmidt frame of the image span, rank-truncated
        resid = g
        for sol in sols:
            n = sol.iterations
            if n > kb.size:
                break
            w = op.apply(kb.element(n))
            pre = w.norm()
            for q in frame:
                w = w - inner(q, w) * q
            if w.norm() > 1e-12 * pre:
                q = (1.0 / w.norm()) * w
                frame.append(q)
                resid = resid - inner(q, resid) * q
            assert abs(resid.norm() - sol.eps_norm) < 1e-10

    def test_rejects_zero_datum(self):
        with pytest.raises(ValueError):
            solve_gmres(RightShift(), Seq.zero(), 5)


class TestSolveCg:
    def setup_method(self):
        self.op = MultiplicationX((1.0, 2.0))
        self.g = Func.from_poly((1.0, 2.0), [0, 0, 1])
        self.f = Func.from_poly((1.0, 2.0), [0, 1])

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(CapabilityError):
            solve_cg(Volterra(), Func.from_poly((0.0, 1.0), [0, 0, 0.5]), 5)

    def test_error_contraction_rate(self):
        """Spectrum in [1,2] means condition number 2, so the classical
        bound gives an asymptotic contraction (sqrt2-1)/(sqrt2+1) ~ 0.172."""
        sols = solve_cg(self.op, self.g, 16)
        errs = [(self.f - s.element).norm() for s in sols]
        geo = (errs[14] / errs[4]) ** (1.0 / 10.0)
        assert geo <= 0.2

    def test_energy_non_increasing(self):
        sols = solve_cg(self.op, self.g, 18)
        def phi(h):
            return inner(h, self.op.apply(h)).real - 2 * inner(h, self.g).real
        vals = [phi(s.element) for s in sols]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_exact_initial_guess_terminates(self):
        sols = solve_cg(self.op, self.g, 10, f0=self.f)
        assert len(sols) == 1 and sols[0].iterations == 0
        assert (lift(sols[0], None) - self.f).norm() < 1e-14

    def test_eigenvector_datum_one_step(self):
        op = MultiplicationSeq(power_law(1.0, 1.0))
        sols = solve_cg(op, Seq.basis_vector(1), 5)
        assert sols[-1].iterations == 1
        assert (sols[-1].element - Seq.basis_vector(1)).norm() < 1e-14

    def test_galerkin_residual_orthogonality(self):
        """The n-th residual is orthogonal to the Krylov space spanned so far."""
        sols = solve_cg(self.op, self.g, 12)
        kb = krylov_basis(self.op, self.g, 12)
        for sol in sols[:10]:
            n = sol.iterations
            r = self.g - self.op.apply(sol.element)
            for i in range(1, n + 1):
                assert abs(inner(kb.element(i), r)) < 1e-8

    def test_matches_variational_minimizer(self):
        """CG iterates equal the dense minimizer of the energy over the
        Krylov block (independent Gram assembly and solve)."""
        sols = solve_cg(self.op, self.g, 15)
        kb = krylov_basis(self.op, self.g, 15)
        for sol in sols:
            n = sol.iterations
            if n > kb.size:
                break
            Q = [kb.element(i) for i in range(1, n + 1)]
            T = np.array([[inner(qi, self.op.apply(qj)) for qj in Q] for qi in Q])
            rhs = np.array([inner(qi, self.g) for qi in Q])
            y = np.linalg.solve(T, rhs)
            minimizer = None
            for yi, qi in zip(y, Q):
                term = yi * qi
                minimizer = term if minimizer is None else minimizer + term
            assert (sol.element - minimizer).norm() < 1e-8

    def test_nemirovskiy_polyak_style_bound(self):
        """With an initial guess satisfying f0 - f = A u, the error decays
        at least like (C/(2N+1))^2 for C fitted on the first iterate."""
        u = Func.from_poly((1.0, 2.0), [1.0])
        f0 = self.f + self.op.apply(u)
        sols = solve_cg(self.op, self.g, 16, f0=f0)
        errs = [(self.f - s.element).norm() for s in sols]
        gamma = 2.0
        C = 3.0 * errs[0] ** (1.0 / gamma)
        for i, e in enumerate(errs):
            n = i + 1
            assert e <= (C / (2 * n + 1)) ** gamma + 1e-14
        assert errs[-1] < 1e-10


class TestAsymptoticConsistency:
    def test_exact_solution_coefficients_solve_asymptotically(self):
        """For the integration problem in the Fourier pair, the truncated
        coefficients of the exact solution satisfy the truncated problem
        with defect -> 0 (value at N=200 under 1e-3 and under half the
        N=25 value)."""
        op = Volterra()
        basis = fourier_basis((0.0, 1.0))
        g = Func.from_poly((0.0, 1.0), [0, 0, 0.5])
        f = Func.from_poly((0.0, 1.0), [0, 1])
        base = compress(op, basis, basis, 200, g)
        defects = {}
        for N in (10, 25, 50, 100, 200):
            fN = np.array([inner(basis.element(n), f) for n in range(1, N + 1)])
            defects[N] = float(
                np.linalg.norm(base.leading(N).A_N @ fN - base.leading(N).g_N)
            )
        vals = [defects[N] for N in (10, 25, 50, 100, 200)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert defects[200] <= 1e-3
        assert defects[200] <= 0.5 * defects[25]


class TestCompressionNormConvergence:
    @pytest.mark.parametrize(
        "makeop,makebasis",
        [
            (Volterra, lambda: legendre_basis((0.0, 1.0))),
            (lambda: WeightedRightShift(power_law(1.0, 1.0)), canonical_basis),
        ],
    )
    def test_residual_block_shrinks(self, makeop, makebasis):
        """Compact kinds: the window estimate of ||A - Q_N A P_N|| (top
        singular value of the 2N block with the leading N x N part zeroed)
        decreases towards zero."""
        op = makeop()
        basis = makebasis()
        datum = Func.zero((0.0, 1.0)) if op.space[0] == "func" else Seq.zero()
        estimates = []
        base = compress(op, basis, basis, 80, datum)
        for N in (5, 10, 20, 40):
            block = base.leading(2 * N).A_N.copy()
            block[:N, :N] = 0.0
            estimates.append(singular_values(block)[0])
        assert all(b < a for a, b in zip(estimates, estimates[1:]))
        assert estimates[-1] < 0.25 * estimates[0]
