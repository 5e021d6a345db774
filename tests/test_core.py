"""Tests for the numerical substrate: quadrature, least squares, SVD."""

import math

import numpy as np
import pytest
import scipy.linalg

from hilbtrunc.core import (
    BANDED_MIN_N,
    RANK_RTOL,
    BandMatrix,
    _bandwidths,
    gauss_legendre,
    qr_least_squares,
    singular_values,
)


class TestGaussLegendre:
    def test_midpoint_rule(self):
        """The one-point rule on [-1, 1] is the midpoint with weight 2."""
        rule = gauss_legendre(1, -1.0, 1.0)
        np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [2.0], atol=1e-15)

    def test_linear_integrand(self):
        """An 8-point rule is exact for degree <= 15, so for x it is exact."""
        rule = gauss_legendre(8, 0.0, 1.0)
        assert abs(np.sum(rule.weights * rule.nodes) - 0.5) < 1e-14

    def test_cosine_squared(self):
        """integral of cos(pi x / 2)^2 over [0,1] is 1/2 by the closed-form
        antiderivative (x + sin(pi x)/pi)/2."""
        rule = gauss_legendre(32, 0.0, 1.0)
        val = np.sum(rule.weights * np.cos(np.pi * rule.nodes / 2) ** 2)
        assert abs(val - 0.5) < 1e-12

    @pytest.mark.parametrize("order", [1, 2, 5, 16, 40])
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (-2.0, 3.5), (1.0, 2.0)])
    def test_weights_sum_to_length(self, order, interval):
        a, b = interval
        rule = gauss_legendre(order, a, b)
        assert abs(np.sum(rule.weights) - (b - a)) <= 1e-13 * (b - a)

    @pytest.mark.parametrize("order", [2, 4, 9, 17])
    def test_polynomial_exactness(self, order):
        """Random polynomials of degree <= 2Q-1 integrate exactly
        (oracle: evaluation of the monomial antiderivative)."""
        rng = np.random.default_rng(2024 + order)
        a, b = 0.25, 1.75
        rule = gauss_legendre(order, a, b)
        for _ in range(25):
            deg = int(rng.integers(0, 2 * order))
            coeffs = rng.standard_normal(deg + 1)
            poly = np.polynomial.Polynomial(coeffs)
            exact = poly.integ()(b) - poly.integ()(a)
            approx = np.sum(rule.weights * poly(rule.nodes))
            assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))

    @pytest.mark.parametrize("order", [1, 7, 64])
    def test_memoized_rule_is_the_mapped_reference_rule(self, order):
        """Repeated calls map the same reference rule, bit for bit."""
        x, w = np.polynomial.legendre.leggauss(order)
        a, b = 0.75, 2.0
        for _ in range(2):
            rule = gauss_legendre(order, a, b)
            assert np.array_equal(rule.nodes, a + 0.5 * (b - a) * (x + 1.0))
            assert np.array_equal(rule.weights, 0.5 * (b - a) * w)
            with pytest.raises(ValueError):
                rule.nodes[0] = 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gauss_legendre(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(4, 1.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(4, 2.0, 1.0)


class TestQrLeastSquares:
    def test_diagonal_inverse(self):
        """diag(1, 1/2, ..., 1/N) against all-ones gives (1, 2, ..., N)."""
        N = 7
        A = np.diag([1.0 / n for n in range(1, N + 1)])
        x = qr_least_squares(A, np.ones(N))
        np.testing.assert_allclose(x, np.arange(1, N + 1), rtol=1e-13)

    def test_zero_matrix_minimum_norm(self):
        A = np.zeros((4, 4))
        x = qr_least_squares(A, np.zeros(4))
        np.testing.assert_allclose(x, 0.0, atol=1e-15)

    def test_shift_matrix_rank_deficient(self):
        """Sub-diagonal shift block against e_1: columns span {e_2, e_3},
        so no x reduces the residual below 1 and the minimum-norm
        minimizer is 0 (hand enumeration of the 3x3 normal equations)."""
        A = np.zeros((3, 3))
        A[1, 0] = A[2, 1] = 1.0
        x = qr_least_squares(A, np.array([1.0, 0, 0]))
        np.testing.assert_allclose(x, 0.0, atol=1e-14)
        res = np.linalg.norm(A @ x - np.array([1.0, 0, 0]))
        assert abs(res - 1.0) < 1e-14

    def test_residual_optimality_random(self):
        """Perturbing the minimizer never decreases the residual."""
        rng = np.random.default_rng(7)
        for trial in range(100):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(1, 21))
            A = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            if trial % 3 == 0 and min(m, n) > 1:  # force rank deficiency
                A[:, -1] = A[:, 0]
            b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            x = qr_least_squares(A, b)
            best = np.linalg.norm(A @ x - b)
            delta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert np.linalg.norm(A @ (x + delta) - b) >= best - 1e-12

    def test_dimension_mismatch(self):
        A = np.eye(3)
        with pytest.raises(ValueError):
            qr_least_squares(A, np.ones(4))

    @pytest.mark.parametrize("shape", ["square", "tall", "wide", "rank-deficient"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32, np.int64])
    def test_zero_datum_skips_the_factorization(self, monkeypatch, shape, dtype):
        """A zero b has the zero minimum-norm solution: the same shape and
        dtype as gelsy's, and no call to scipy.linalg.lstsq."""
        rng = np.random.default_rng(3)
        m, n = {"square": (5, 5), "tall": (7, 3), "wide": (3, 7), "rank-deficient": (6, 6)}[shape]
        A = rng.standard_normal((m, n)) * 4
        if dtype is np.complex128:
            A = A + 1j * rng.standard_normal((m, n))
        if shape == "rank-deficient":
            A[:, 1] = A[:, 0]
            A[:, -1] = 0
        A = A.astype(dtype)
        b = np.zeros(m, dtype=dtype)
        b[::2] = -0.0
        want = scipy.linalg.lstsq(A, b, lapack_driver="gelsy")[0]

        def refused(*args, **kwargs):
            raise AssertionError("lstsq called for a zero datum")

        monkeypatch.setattr(scipy.linalg, "lstsq", refused)
        x = qr_least_squares(A, b)
        assert x.shape == want.shape == (n,)
        assert x.dtype == want.dtype
        assert not x.any()

    @pytest.mark.parametrize("bands", [(0, 0), (1, 1), (2, 0), (0, 2), (2, 2)])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_full_rank_band_solved_without_lstsq(self, monkeypatch, bands, dtype):
        """A diagonally dominant band matrix above BANDED_MIN_N: the
        solution of np.linalg.solve, in gelsy's dtype, with no call to
        scipy.linalg.lstsq."""
        kl, ku = bands
        N = BANDED_MIN_N + 72
        rng = np.random.default_rng(kl + 3 * ku)
        A = np.zeros((N, N), dtype=dtype)
        for k in range(-kl, ku + 1):
            d = rng.standard_normal(N - abs(k))
            if dtype is np.complex128:
                d = d + 1j * rng.standard_normal(N - abs(k))
            A += np.diag(d if k else d + 8.0, k)
        b = rng.standard_normal(N).astype(dtype)
        want = np.linalg.solve(A, b)
        dtype_want = scipy.linalg.lstsq(A[:2, :2], b[:2], lapack_driver="gelsy")[0].dtype

        def refused(*args, **kwargs):
            raise AssertionError("lstsq called for a full-rank band system")

        monkeypatch.setattr(scipy.linalg, "lstsq", refused)
        x = qr_least_squares(A, b)
        assert x.dtype == dtype_want and x.shape == (N,)
        assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)

    def test_condition_certificate_without_the_factor_n(self, monkeypatch):
        """A complex tridiagonal system at N = 300 whose last row is
        scaled by 1e-9: ?gbcon's rcond_1 = 6.4e-11 lies between 10
        RANK_RTOL and 10 N RANK_RTOL, so the 1-norm rule alone refuses
        the LU, but sqrt(rcond_1 rcond_inf) = 9.9e-11 >= 10 RANK_RTOL
        proves full rank (sigma_min / sigma_max = 1.5e-10)."""
        N = 300
        rng = np.random.default_rng(11)

        def c(m):
            return rng.standard_normal(m) + 1j * rng.standard_normal(m)

        A = np.diag(1.0 + 0.1 * c(N)) + np.diag(0.25 * c(N - 1), 1) + np.diag(0.1 * c(N - 1), -1)
        A[-1, -2:] = 1e-9
        b = c(N)
        ab = np.zeros((4, N), dtype=complex)
        for k in (-1, 0, 1):
            ab[2 - k, max(k, 0) : N + min(k, 0)] = np.diagonal(A, k)
        gbtrf, gbcon = scipy.linalg.get_lapack_funcs(("gbtrf", "gbcon"), (A,))
        lu, ipiv, _ = gbtrf(ab, 1, 1)
        rcond_1 = gbcon(1, 1, lu, ipiv, np.abs(A).sum(axis=0).max())[0]
        rcond_inf = gbcon(1, 1, lu, ipiv, np.abs(A).sum(axis=1).max(), norm="I")[0]
        assert 10 * RANK_RTOL < rcond_1 < 10 * N * RANK_RTOL
        assert math.sqrt(rcond_1 * rcond_inf) >= 10 * RANK_RTOL
        want = scipy.linalg.lstsq(A, b, cond=RANK_RTOL, lapack_driver="gelsy")[0]

        def refused(*args, **kwargs):
            raise AssertionError("lstsq called for a certified band system")

        monkeypatch.setattr(scipy.linalg, "lstsq", refused)
        x = qr_least_squares(A, b)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("bands", [(0, 0), (1, 1), (2, 0), (0, 2), (2, 2)])
    def test_declared_band_gives_the_scans_bandwidths_and_bits(self, bands):
        """A BandMatrix stored two diagonals wider than the nonzeros, its
        outer diagonals holding -0.0 and an inner one zero: the diagonals
        it reads give the bandwidths of a scan, and the solve the scan's
        bits."""
        kl, ku = bands
        N = BANDED_MIN_N + 72
        rng = np.random.default_rng(7 * kl + ku)
        A = np.zeros((N, N), dtype=complex)
        for k in range(-kl, ku + 1):
            d = rng.standard_normal(N - abs(k)) + 1j * rng.standard_normal(N - abs(k))
            A += np.diag(d if k else d + 8.0, k)
        if kl + ku == 4:
            A[np.arange(N - 1), np.arange(1, N)] = 0.0
        for k in (-kl - 2, -kl - 1, ku + 1, ku + 2):
            rows = np.arange(max(-k, 0), N - max(k, 0))
            A[rows, rows + k] = -0.0
        b = rng.standard_normal(N) + 0j
        B = band_matrix(A, kl + 2, ku + 2)
        assert _bandwidths(B) == _bandwidths(A) == (kl, ku)
        assert qr_least_squares(B, b).tobytes() == qr_least_squares(A, b).tobytes()

    @pytest.mark.parametrize("tiny", [1e-13, 1e-20])
    def test_band_of_unproven_rank_keeps_gelsy_bits(self, tiny):
        """No zero pivot, but sigma_min / sigma_max below RANK_RTOL: the
        rank is not proven, and gelsy's minimum-norm solution (which drops
        the last component) comes back bit for bit."""
        N = BANDED_MIN_N + 72
        A = np.diag(np.linspace(1.0, 2.0, N)) + np.diag(np.full(N - 1, 0.25), 1)
        A[-1, -1] = tiny
        b = np.ones(N)
        want = scipy.linalg.lstsq(A, b, cond=RANK_RTOL, lapack_driver="gelsy")[0]
        x = qr_least_squares(A, b)
        assert x.dtype == want.dtype and x.tobytes() == want.tobytes()
        assert abs(x[-1]) < 1.0

    def test_zero_matrix_above_threshold_keeps_gelsy_bits(self):
        A = np.zeros((BANDED_MIN_N + 72, BANDED_MIN_N + 72))
        b = np.ones(len(A))
        want = scipy.linalg.lstsq(A, b, cond=RANK_RTOL, lapack_driver="gelsy")[0]
        assert qr_least_squares(A, b).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kl", [99, 199])
    def test_well_conditioned_wide_band_keeps_gelsy_bits(self, kl):
        """2 kl + ku + 1 >= N (ku = 1; kl = 99 is the narrowest such band
        at N = 200): band storage would not pay, so gelsy solves even a
        well-conditioned system."""
        N = 200
        rng = np.random.default_rng(kl)
        A = np.tril(rng.standard_normal((N, N)), 1) + 30.0 * np.eye(N)
        A = np.triu(A, -kl)
        b = rng.standard_normal(N)
        want = scipy.linalg.lstsq(A, b, cond=RANK_RTOL, lapack_driver="gelsy")[0]
        assert qr_least_squares(A, b).tobytes() == want.tobytes()

    def test_zero_datum_with_non_finite_matrix_still_raises(self):
        A = np.eye(3)
        A[1, 2] = np.nan
        with pytest.raises(ValueError):
            qr_least_squares(A, np.zeros(3))


def band_matrix(A, kl, ku):
    """The BandMatrix of A's diagonals kl below to ku above the main one."""
    n = len(A)
    ab = np.zeros((kl + ku + 1, n), dtype=A.dtype)
    for k in range(-kl, ku + 1):
        ab[ku - k, max(k, 0) : n + min(k, 0)] = np.diagonal(A, k)
    return BandMatrix(ab, kl, ku)


class TestBandMatrix:
    @pytest.fixture
    def A(self):
        """A complex (2, 1) band matrix of N = 40 with signed zeros on
        its diagonals and +0 outside them."""
        rng = np.random.default_rng(2)
        A = np.zeros((40, 40), dtype=complex)
        for k in (-2, -1, 0, 1):
            A += np.diag(rng.standard_normal(40 - abs(k)) + 1j * rng.standard_normal(40 - abs(k)), k)
        A[np.arange(1, 40, 3), np.arange(0, 39, 3)] = -0.0
        A[np.arange(0, 39, 4), np.arange(1, 40, 4)] = complex(-0.0, 0.0)
        return A

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 40])
    def test_leading_blocks_keep_the_bits(self, A, n):
        """The leading block's dense array, diagonals and bandwidths are
        those of the dense leading block, signed zeros included."""
        B = band_matrix(A, 2, 1).leading(n)
        assert B.shape == (n, n) and B.dense.tobytes() == A[:n, :n].tobytes()
        for k in range(-2, 2):
            assert B.diagonal(k).tobytes() == np.diagonal(A[:n, :n], k).tobytes()
        assert _bandwidths(B) == _bandwidths(A[:n, :n])
        with pytest.raises(ValueError):
            B.dense[0, 0] = 1.0

    def test_product_from_the_band_then_from_the_dense_array(self, A):
        B = band_matrix(A, 2, 1)
        x = np.random.default_rng(3).standard_normal(40) + 0j
        np.testing.assert_allclose(B @ x, A @ x, rtol=0, atol=1e-14 * np.abs(A @ x).max())
        assert B.dense.tobytes() == A.tobytes()
        assert (B @ x).tobytes() == (A @ x).tobytes()

    @pytest.mark.parametrize("N", [BANDED_MIN_N, BANDED_MIN_N + 72])
    def test_solve_has_the_dense_arrays_bits(self, N):
        """Through pivoted QR (N <= BANDED_MIN_N) and through banded LU."""
        rng = np.random.default_rng(N)
        A = np.diag(8.0 + rng.standard_normal(N)) + np.diag(rng.standard_normal(N - 1), 1)
        A = A + np.diag(1j * rng.standard_normal(N - 2), -2)
        b = rng.standard_normal(N)
        B = band_matrix(A, 2, 1)
        assert qr_least_squares(B, b).tobytes() == qr_least_squares(A, b).tobytes()


class TestSingularValues:
    def test_diagonal(self):
        sv = singular_values(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(sv, [3.0, 2.0, 1.0], atol=1e-14)

    def test_weighted_shift_block_is_singular(self):
        """The shift block with decreasing weights on the sub-diagonal has
        singular values (sigma_1, ..., sigma_{N-1}, 0) for every N."""
        N = 9
        sigma = np.array([1.0 / n for n in range(1, N)])
        A = np.zeros((N, N))
        for i, s in enumerate(sigma):
            A[i + 1, i] = s
        sv = singular_values(A)
        np.testing.assert_allclose(sv, np.concatenate([sigma, [0.0]]), atol=1e-14)

    def test_two_by_two_closed_form(self):
        """((1,1),(0,1)) has singular values (phi, 1/phi): the Gram matrix
        ((1,1),(1,2)) has eigenvalues (3 +- sqrt(5))/2."""
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        sv = singular_values(np.array([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose(sv, [phi, 1.0 / phi], rtol=1e-14)

    @pytest.mark.parametrize("n", [3, 17, 50])
    def test_unitary_invariance(self, n):
        rng = np.random.default_rng(100 + n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        W, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        sv = singular_values(A)
        sv2 = singular_values(U @ A @ W)
        np.testing.assert_allclose(sv, sv2, atol=1e-9 * sv[0])
