"""Tests for compression, lifting, and the three solver paths."""

import functools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import hilbtrunc
from hilbtrunc.cli import make_basis, parse_element, parse_operator
from hilbtrunc.core import (
    BANDED_MIN_N,
    RANK_RTOL,
    CapabilityError,
    _bandwidths,
    gauss_legendre,
    qr_least_squares,
    singular_values,
)
from hilbtrunc.elements import Func, Seq, inner, lincomb
from hilbtrunc.operators import (
    MultiplicationSeq,
    MultiplicationX,
    RightShift,
    Volterra,
    WeightedRightShift,
    constant_law,
    power_law,
)
from hilbtrunc.bases import (
    adversarial_test_basis,
    canonical_basis,
    fourier_basis,
    krylov_basis,
    legendre_basis,
    svd_bases,
)
import hilbtrunc.truncation as truncation
from hilbtrunc.truncation import (
    ApproxSolution,
    compress,
    lift,
    solve_cg,
    solve_direct,
    solve_gmres,
)
from oracles import eval_at, givens_residuals


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
                * np.conj(eval_at(leg.element(int(i)), rule.nodes))
                * eval_at(au, rule.nodes)
            )
            assert abs(p.A_N[i - 1, j - 1] - oracle) < 1e-12

    def test_space_mismatch_rejected(self):
        with pytest.raises(CapabilityError):
            compress(Volterra(), canonical_basis(), canonical_basis(), 3, Seq.zero())

    def test_projected_datum_compresses_without_warning(self):
        """A datum given by a quadrature projection of exp is compressed like
        any other Legendre datum: no warning, g_N its leading coefficients."""
        op = Volterra()
        leg = legendre_basis((0.0, 1.0))
        rule = gauss_legendre(40, 0.0, 1.0)
        coeffs = [
            np.sum(rule.weights * np.conj(eval_at(e, rule.nodes)) * np.exp(rule.nodes))
            for e in leg.elements(13)
        ]
        datum = Func.from_leg((0.0, 1.0), coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = compress(op, leg, leg, 4, datum)
        assert p.N == 4
        np.testing.assert_allclose(p.g_N, coeffs[:4], rtol=0, atol=1e-15)

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

    def test_problems_compare_and_hash_by_identity(self):
        basis = canonical_basis()
        p = compress(RightShift(), basis, basis, 4, Seq.basis_vector(1))
        q = p.leading(4)
        assert p == p and p != q and q != p
        assert len({p, q, p}) == 2

    def test_compress_rejects_an_empty_truncation(self):
        basis = canonical_basis()
        with pytest.raises(ValueError, match="need N >= 1"):
            compress(RightShift(), basis, basis, 0, Seq.basis_vector(1))

    @pytest.mark.parametrize("N", [0, 5])
    def test_leading_rejects_sizes_outside_the_compression(self, N):
        basis = canonical_basis()
        p = compress(RightShift(), basis, basis, 4, Seq.zero())
        with pytest.raises(ValueError):
            p.leading(N)


class TestLift:
    def test_zero_coefficients(self):
        sol = ApproxSolution(np.zeros(3), 0.0, 0)
        el = lift(sol, legendre_basis((0.0, 1.0)))
        assert el.norm() < 1e-15

    def test_canonical_padding(self):
        sol = ApproxSolution(np.array([1.0, 2.0]), 0.0, 0)
        el = lift(sol, canonical_basis())
        assert el.component(1) == 1.0 and el.component(2) == 2.0 and el.component(3) == 0.0

    def test_norm_preserved(self):
        vals = np.array([0.3, -0.4j, 1.2])
        sol = ApproxSolution(vals, 0.0, 0)
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
            sol = ApproxSolution(padded, 0.0, 0)
            el = lift(sol, basis)
            np.testing.assert_allclose(
                eval_at(el, rule.nodes).real, rule.nodes, atol=1e-12
            )


def signed_zero_coeffs(N, seed):
    """Random complex coefficients with every kind of signed zero mixed in."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    zeros = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for k in range(0, N, 3):
        c[k] = zeros[k % len(zeros)]
    if N > 1:
        c[-1] = complex(-0.0, 2.5)  # a signed zero in one part only
    return c


COORDINATE_FRAMES = {
    "legendre[0,1]": lambda: legendre_basis((0.0, 1.0)),
    "legendre[-1.5,2.25]": lambda: legendre_basis((-1.5, 2.25)),
    "canonical[nat]": lambda: canonical_basis("nat"),
    "canonical[int]": lambda: canonical_basis("int"),
}


class TestLiftPlacement:
    @pytest.mark.parametrize("N", [1, 7, 100])
    @pytest.mark.parametrize("frame", list(COORDINATE_FRAMES))
    def test_placement_equals_lincomb(self, frame, N):
        """A coordinate frame's lift places the coefficients; the sum over
        the frame's elements only adds +-0 to each, so the two agree
        entry by entry (==, blind to the sign of a zero)."""
        basis = COORDINATE_FRAMES[frame]()
        assert basis.coordinates is not None
        coeffs = signed_zero_coeffs(N, seed=N)
        placed = lift(ApproxSolution(coeffs, 0.0, 0), basis)
        summed = lincomb(coeffs, basis.elements(N))
        assert type(placed) is type(summed)
        if isinstance(summed, Seq):
            assert (placed.domain, placed.origin) == (summed.domain, summed.origin)
            got, want = placed.values, summed.values
        else:
            assert placed.interval == summed.interval
            assert placed.osc == summed.osc == {}
            got, want = placed.values, summed.values
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.all(got == want)

    def test_placement_copies_the_coefficients(self):
        coeffs = np.array([1.0, 2.0j])
        el = lift(ApproxSolution(coeffs, 0.0, 0), legendre_basis((0.0, 1.0)))
        coeffs[0] = 7.0
        assert el.values[0] == 1.0

    def test_other_bases_go_through_lincomb(self, monkeypatch):
        op = Volterra()
        g = Func.from_poly((0.0, 1.0), [0, 0, 0.5])
        legendre = legendre_basis((0.0, 1.0))
        bases = [
            fourier_basis((0.0, 1.0)),
            krylov_basis(op, g, 6),
            *svd_bases(op),
            adversarial_test_basis(op, legendre, 3),
        ]
        calls = []

        def counted(coeffs, elements):
            calls.append(len(elements))
            return lincomb(coeffs, elements)

        monkeypatch.setattr(truncation, "lincomb", counted)
        for basis in bases:
            assert basis.coordinates is None
            lift(ApproxSolution(signed_zero_coeffs(3, seed=1), 0.0, 0), basis)
        assert calls == [3] * len(bases)
        for frame in COORDINATE_FRAMES.values():
            lift(ApproxSolution(np.ones(3), 0.0, 0), frame())
        assert calls == [3] * len(bases)


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


def reference_kernel_vector(A):
    """The full-SVD kernel vector _kernel_vector used to compute: the reference."""
    u, s, vh = np.linalg.svd(A)
    if len(s) == 0 or s[-1] > RANK_RTOL * max(s[0], 1e-300):
        return None
    v = np.conj(vh[-1])
    v[np.abs(v) < 1e-14 * np.max(np.abs(v))] = 0.0
    pivot = v[int(np.argmax(np.abs(v)))]
    v = v * (np.conj(pivot) / abs(pivot))
    return v / np.linalg.norm(v)


def demo_truncations():
    """Every truncation the pathological-family and shift-weak-residual demos solve."""
    basis = canonical_basis()
    for op, n_max in ((RightShift(), 100), (WeightedRightShift(power_law(1.0, 1.0)), 40)):
        base = compress(op, basis, basis, n_max, Seq.zero())
        for N in range(1, n_max + 1):
            yield base.leading(N).A_N


def with_singular_values(sigma, complex_, seed):
    """A random matrix U diag(sigma) V^H with orthogonal or unitary U, V."""
    rng = np.random.default_rng(seed)
    N = len(sigma)

    def unitary():
        M = rng.standard_normal((N, N))
        if complex_:
            M = M + 1j * rng.standard_normal((N, N))
        return np.linalg.qr(M)[0]

    V = unitary()
    return (unitary() * np.asarray(sigma)) @ V.conj().T, V[:, -1]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestKernelVector:
    def test_demo_truncations_match_the_reference_bitwise(self):
        for A in demo_truncations():
            assert_same_bits(truncation._kernel_vector(A), reference_kernel_vector(A))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_matrix_matches_the_reference_bitwise(self, dtype):
        A = np.zeros((5, 5), dtype=dtype)
        v = truncation._kernel_vector(A)
        assert_same_bits(v, reference_kernel_vector(A))
        assert v[-1] == 1.0

    @pytest.mark.parametrize("N", range(2, 12))
    def test_two_zero_columns_give_the_last(self, N):
        """Truncations of S^2 have two zero columns.  The reference lands
        on either one (the last at even N, the other at odd N); the
        unit vector at the last is the documented choice."""
        A = np.diag(np.ones(N - 2, dtype=complex), -2)
        want = np.zeros(N, dtype=complex)
        want[-1] = 1.0
        assert_same_bits(truncation._kernel_vector(A), want)
        ref = reference_kernel_vector(A)
        assert np.count_nonzero(ref) == 1 and np.flatnonzero(ref)[0] in (N - 2, N - 1)
        assert abs(ref).max() == 1.0

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("N", [2, 7, 40, 200])
    def test_random_nullity_one(self, N, complex_):
        sigma = np.linspace(3.0, 0.5, N)
        sigma[-1] = 0.0
        A, _ = with_singular_values(sigma, complex_, seed=N)
        v = truncation._kernel_vector(A)
        ref = reference_kernel_vector(A)
        assert v.dtype == ref.dtype
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
        assert np.linalg.norm(A @ v) <= 1e-12 * sigma[0]
        assert abs(np.vdot(v, ref)) >= 1.0 - 1e-10

    @pytest.mark.parametrize("ratio", [0.5e-12, 2e-12])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_rank_boundary(self, ratio, complex_):
        sigma = np.linspace(1.0, 0.5, 12)
        sigma[-1] = ratio
        A, kernel = with_singular_values(sigma, complex_, seed=3)
        v = truncation._kernel_vector(A)
        ref = reference_kernel_vector(A)
        assert (v is None) == (ref is None) == (ratio > RANK_RTOL)
        if v is not None:
            assert abs(np.vdot(v, kernel)) >= 1.0 - 1e-10

    def test_wide_matrix_has_a_kernel(self):
        """Five columns and three singular values: the rank test alone
        never sees the two-dimensional kernel."""
        A = np.random.default_rng(5).standard_normal((3, 5))
        v = truncation._kernel_vector(A)
        assert v is not None and abs(np.linalg.norm(v) - 1.0) <= 1e-15
        assert np.linalg.norm(A @ v) <= 1e-12 * np.linalg.norm(A, 2)
        p = truncation.TruncatedProblem(N=3, A_N=A, g_N=np.ones(3))
        unit = solve_direct(p, family="kernel-unit").f_N_coeffs
        np.testing.assert_allclose(unit - solve_direct(p).f_N_coeffs, v, atol=1e-14)

    def test_cli_csv_matches_the_reference(self, tmp_path, monkeypatch):
        from hilbtrunc.cli import main

        (tmp_path / "shift.ini").write_text(
            "[problem]\noperator = right-shift\ndatum = basis-e:1\n"
            "[truncation]\ntrial = canonical\ntest = canonical\n"
            "n_list = 10,50,200\nsolver = qr\nsolution_family = kernel-unit\n"
            "[output]\ncsv = out.csv\n"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["run", "shift.ini", "--out", "new.csv"]) == 0
        monkeypatch.setattr(truncation, "_kernel_vector", reference_kernel_vector)
        assert main(["run", "shift.ini", "--out", "ref.csv"]) == 0
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def gelsy(A, b):
    return scipy.linalg.lstsq(A, b, cond=RANK_RTOL, lapack_driver="gelsy")[0]


@functools.lru_cache(maxsize=None)
def frame_truncation(operator, frame, N):
    """The N x N truncation of `operator` on a frame, with a nonzero datum:
    poly:0.3,1,0.5 on Legendre, the image of 1/n on canonical."""
    op = parse_operator(operator)
    if frame == "canonical":
        domain = op.space[1]
        g = op.apply(Seq(domain, 1 if domain == "nat" else -N // 2, 1.0 / np.arange(1, N + 2)))
    else:
        g = parse_element("poly:0.3,1,0.5", op)
    basis = make_basis(frame, op, g, N)
    return compress(op, basis, basis, N, g)


#: The banded frame pairs the CLI accepts.  The weighted shifts on
#: canonical are singular at every N (the truncation drops the image of
#: the last index), so they keep gelsy, as the fallback tests pin.
BANDED_FRAME_PAIRS = [
    ("volterra", "legendre"),
    ("mult-x:0.75,2", "legendre"),
    ("mult-x:0,1", "legendre"),
    ("mult-seq:pow:1,1", "canonical"),
    ("weighted-right-shift-z:pow1:1,1", "canonical"),
]


class TestBandedSolve:
    """Square band truncations above BANDED_MIN_N are solved by banded LU
    when it proves full rank; everything else keeps gelsy's bits."""

    @pytest.mark.parametrize("N", [129, 200, 640])
    @pytest.mark.parametrize("operator,frame", BANDED_FRAME_PAIRS)
    def test_agrees_with_gelsy(self, operator, frame, N):
        """Largest relative difference measured at these N: 3.8e-15
        (volterra), 1.3e-15 (mult-x:0.75,2), 3.5e-13 (mult-x:0,1), 0
        (mult-seq, diagonal; the singular shift keeps gelsy)."""
        p = frame_truncation(operator, frame, 640).leading(N)
        assert p.g_N.any()
        want = gelsy(p.A_N, p.g_N)
        x = solve_direct(p).f_N_coeffs
        assert x.dtype == want.dtype
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("operator,frame", BANDED_FRAME_PAIRS[:4])
    def test_full_rank_band_makes_no_lstsq_call(self, monkeypatch, operator, frame):
        p = frame_truncation(operator, frame, 640)

        def refused(*args, **kwargs):
            raise AssertionError("lstsq called for a full-rank band system")

        monkeypatch.setattr(scipy.linalg, "lstsq", refused)
        sol = solve_direct(p)
        assert sol.eps_norm <= 1e-12 * np.linalg.norm(p.g_N)

    @pytest.mark.parametrize(
        "operator,frame,test,N",
        [
            ("volterra", "legendre", "legendre", BANDED_MIN_N),
            ("right-shift", "canonical", "canonical", 200),
            ("weighted-right-shift:pow:1,1", "canonical", "canonical", 200),
            ("weighted-right-shift-z:pow1:1,1", "canonical", "canonical", 640),
            ("volterra", "fourier", "legendre", 150),
        ],
        ids=["at-the-threshold", "singular-shift", "singular-weighted-shift",
             "singular-shift-z", "dense-fourier-legendre"],
    )
    def test_fallbacks_keep_gelsy_bits(self, operator, frame, test, N):
        op = parse_operator(operator)
        g = parse_element("basis-e:1" if frame == "canonical" else "poly:0.3,1,0.5", op)
        trial = make_basis(frame, op, g, N)
        p = compress(op, trial, make_basis(test, op, g, N), N, g)
        assert p.g_N.any()
        assert_same_bits(solve_direct(p).f_N_coeffs, gelsy(p.A_N, p.g_N))

    @pytest.mark.bitwise
    @pytest.mark.parametrize(
        "operator,frame,sizes",
        [
            ("volterra", "legendre", range(BANDED_MIN_N + 1, 641)),
            ("mult-x:0.75,2", "legendre", range(BANDED_MIN_N + 1, 641)),
            ("right-shift", "canonical", (BANDED_MIN_N + 1, 200, 640)),
            ("weighted-right-shift:pow:1,1", "canonical", (BANDED_MIN_N + 1, 640)),
            ("weighted-right-shift-z:pow1:1,1", "canonical", (BANDED_MIN_N + 1, 640)),
        ],
        ids=["volterra", "mult-x", "right-shift", "weighted-right-shift", "weighted-right-shift-z"],
    )
    def test_carried_band_keeps_the_scans_bandwidths_and_bits(
        self, monkeypatch, operator, frame, sizes
    ):
        """Leading blocks above BANDED_MIN_N of one N = 640 compression:
        the band compress carries gives the bandwidths a scan of A_N
        finds, and the solution the bits of the scanned solve, which
        solve_direct reaches without a scan.  The canonical shifts are
        singular, so they still reach gelsy."""
        base = frame_truncation(operator, frame, 640)
        bands = []  # the band each solve reads its bandwidths from
        monkeypatch.setattr(
            hilbtrunc.core, "_bandwidths", lambda A, band=None: bands.append(band) or _bandwidths(A, band)
        )
        for N in sizes:
            p = base.leading(N)
            assert p.band is not None
            assert _bandwidths(p.A_N, p.band) == _bandwidths(p.A_N)
            x = solve_direct(p).f_N_coeffs
            assert x.tobytes() == qr_least_squares(p.A_N, p.g_N).tobytes()
            assert bands[-2:] == [p.band, None]
            if frame == "canonical":
                assert x.tobytes() == gelsy(p.A_N, p.g_N).tobytes()

    @pytest.mark.parametrize("where", ["matrix", "datum"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_raises_as_gelsy(self, where, value):
        p = frame_truncation("volterra", "legendre", 640).leading(200)
        A, b = p.A_N.copy(), p.g_N.copy()
        if where == "matrix":
            A[5, 5] = value
        else:
            b[0] = value
        with pytest.raises(ValueError) as want:
            gelsy(A, b)
        with pytest.raises(ValueError) as got:
            qr_least_squares(A, b)
        assert str(got.value) == str(want.value)

    @pytest.mark.bitwise
    def test_solution_bits_independent_of_blas_threads(self):
        """The volterra N = 640 solve, in fresh processes with one and
        two BLAS threads, gives the same bytes."""
        script = (
            "import sys\n"
            "from hilbtrunc.cli import make_basis, parse_element, parse_operator\n"
            "from hilbtrunc.truncation import compress, solve_direct\n"
            "op = parse_operator('volterra')\n"
            "g = parse_element('poly:0.3,1,0.5', op)\n"
            "leg = make_basis('legendre', op, g, 640)\n"
            "x = solve_direct(compress(op, leg, leg, 640, g)).f_N_coeffs\n"
            "sys.stdout.write(x.tobytes().hex())\n"
        )
        src = str(Path(hilbtrunc.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert len(outputs[0]) == 640 * 16 * 2
        assert outputs[0] == outputs[1]


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


GMRES_PROBLEMS = {
    "volterra": (Volterra(), Func.from_poly((0.0, 1.0), [0, 0, 0.5])),
    "mult-x": (MultiplicationX((1.0, 2.0)), Func.from_poly((1.0, 2.0), [0, 0, 1])),
    "mult-x-wide": (MultiplicationX((0.5, 1.5)), Func.from_poly((0.5, 1.5), [0.3, -1.0, 0.5])),
    "weighted-shift": (WeightedRightShift(power_law(1.0, 1.0)), Seq.basis_vector(1)),
    "mult-seq": (MultiplicationSeq(power_law(1.0, 1.0)), Seq("nat", 1, np.array([1.0, 0.5j, -0.25]))),
}


@pytest.fixture
def lstsq_steps(monkeypatch):
    """The sizes n of the Hessenberg blocks solve_gmres solves."""
    seen = []
    original = truncation.qr_least_squares

    def counted(A, b):
        seen.append(A.shape[1])
        return original(A, b)

    monkeypatch.setattr(truncation, "qr_least_squares", counted)
    return seen


class TestGmresSteps:
    @pytest.mark.parametrize("name", ["volterra", "mult-x"])
    def test_givens_residuals_match_least_squares(self, name):
        """Every step up to N = 60: the progressive Givens residual and
        the residual of the pivoted-QR solve agree to 1e-12 ||g||."""
        op, g = GMRES_PROBLEMS[name]
        sols, kb = solve_gmres(op, g, 60, tol=0.0)
        assert [s.iterations for s in sols] == list(range(1, 61))
        givens = givens_residuals(kb.hessenberg, g.norm())
        for sol in sols:
            assert abs(givens[sol.iterations - 1] - sol.eps_norm) <= 1e-12 * g.norm()

    def test_givens_residuals_against_dense_least_squares(self):
        rng = np.random.default_rng(7)
        m = 12
        H = np.triu(rng.standard_normal((m + 1, m)) + 1j * rng.standard_normal((m + 1, m)), -1)
        H[3, 2] = 0.0  # a zero subdiagonal entry
        for n, res in enumerate(givens_residuals(H, 2.5), start=1):
            rhs = np.zeros(n + 1, dtype=complex)
            rhs[0] = 2.5
            y = np.linalg.lstsq(H[: n + 1, :n], rhs, rcond=None)[0]
            assert abs(res - np.linalg.norm(H[: n + 1, :n] @ y - rhs)) <= 1e-13

    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 0.0])
    @pytest.mark.parametrize("name", sorted(GMRES_PROBLEMS))
    def test_steps_are_the_requested_ones_and_the_stop(self, name, tol):
        """steps= returns the requested steps up to the stop plus the
        stopping step, each the same solve as in the full sweep, and stops
        where the full sweep stops."""
        op, g = GMRES_PROBLEMS[name]
        full, _ = solve_gmres(op, g, 60, tol=tol)
        stop = full[-1].iterations
        by_step = {s.iterations: s for s in full}
        steps = (1, 2, 5, 10, 20, 50)
        some, _ = solve_gmres(op, g, 60, tol=tol, steps=steps)
        assert [s.iterations for s in some] == sorted({n for n in steps if n <= stop} | {stop})
        for sol in some:
            ref = by_step[sol.iterations]
            assert np.array_equal(sol.f_N_coeffs, ref.f_N_coeffs)
            assert sol.eps_norm == ref.eps_norm

    @pytest.mark.parametrize("name", sorted(GMRES_PROBLEMS))
    def test_stop_does_not_depend_on_steps(self, name):
        op, g = GMRES_PROBLEMS[name]
        for tol in (1e-4, 1e-8, 1e-12):
            stops = {
                solve_gmres(op, g, 60, tol=tol, steps=steps)[0][-1].iterations
                for steps in (None, (1, 2, 5, 10, 20, 50), (), (60,))
            }
            assert len(stops) == 1

    @pytest.mark.parametrize(
        "name,n_max,steps", [("volterra", 240, (30, 60, 120, 240)), ("mult-x", 60, (7, 15))]
    )
    def test_solves_only_requested_and_near_steps(self, lstsq_steps, name, n_max, steps):
        """Least squares runs at the requested steps and where the Givens
        residual is within tol + RANK_RTOL ||g||, up to the stop."""
        op, g = GMRES_PROBLEMS[name]
        sols, kb = solve_gmres(op, g, n_max, tol=1e-10, steps=steps)
        stop = sols[-1].iterations
        assert stop < n_max  # both converge: volterra at step 191
        givens = givens_residuals(kb.hessenberg, g.norm())
        near = {n for n in range(1, stop + 1) if givens[n - 1] <= 1e-10 + RANK_RTOL * g.norm()}
        assert lstsq_steps == sorted({n for n in steps if n <= stop} | near)
        assert lstsq_steps[-1] == stop and len(lstsq_steps) <= len(steps) + 3

    def test_exhausted_space_returns_its_last_step(self):
        op = MultiplicationSeq(power_law(1.0, 1.0))
        g = Seq("nat", 1, np.array([1.0, 0.5j, -0.25]))
        sols, kb = solve_gmres(op, g, 20, tol=0.0, steps=(1,))
        assert kb.exhausted and [s.iterations for s in sols] == [1, kb.hessenberg.shape[1]]


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
        sols, _ = solve_cg(self.op, self.g, 16)
        errs = [(self.f - s.element).norm() for s in sols]
        geo = (errs[14] / errs[4]) ** (1.0 / 10.0)
        assert geo <= 0.2

    def test_energy_non_increasing(self):
        sols, _ = solve_cg(self.op, self.g, 18)
        def phi(h):
            return inner(h, self.op.apply(h)).real - 2 * inner(h, self.g).real
        vals = [phi(s.element) for s in sols]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_exact_initial_guess_terminates(self):
        sols, _ = solve_cg(self.op, self.g, 10, f0=self.f)
        assert len(sols) == 1 and sols[0].iterations == 0
        assert (lift(sols[0], None) - self.f).norm() < 1e-14

    def test_eigenvector_datum_one_step(self):
        op = MultiplicationSeq(power_law(1.0, 1.0))
        sols, _ = solve_cg(op, Seq.basis_vector(1), 5)
        assert sols[-1].iterations == 1
        assert (sols[-1].element - Seq.basis_vector(1)).norm() < 1e-14

    def test_galerkin_residual_orthogonality(self):
        """The n-th residual is orthogonal to the Krylov space spanned so far."""
        sols, _ = solve_cg(self.op, self.g, 12)
        kb = krylov_basis(self.op, self.g, 12)
        for sol in sols[:10]:
            n = sol.iterations
            r = self.g - self.op.apply(sol.element)
            for i in range(1, n + 1):
                assert abs(inner(kb.element(i), r)) < 1e-8

    def test_matches_variational_minimizer(self):
        """CG iterates equal the dense minimizer of the energy over the
        Krylov block (independent Gram assembly and solve)."""
        sols, _ = solve_cg(self.op, self.g, 15)
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
        sols, _ = solve_cg(self.op, self.g, 16, f0=f0)
        errs = [(self.f - s.element).norm() for s in sols]
        gamma = 2.0
        C = 3.0 * errs[0] ** (1.0 / gamma)
        for i, e in enumerate(errs):
            n = i + 1
            assert e <= (C / (2 * n + 1)) ** gamma + 1e-14
        assert errs[-1] < 1e-10


    def test_returns_the_basis_its_coordinates_refer_to(self):
        """The basis is the Arnoldi basis of the datum (f0 = 0), and each
        iterate's coordinates in it rebuild the iterate."""
        sols, kb = solve_cg(self.op, self.g, 12)
        assert kb.label == krylov_basis(self.op, self.g, 1).label
        assert kb.size == 13
        for sol in sols:
            assert len(sol.f_N_coeffs) == sol.iterations
            rebuilt = lift(replace(sol, element=None), kb)
            assert (rebuilt - sol.element).norm() < 1e-13

    def test_steps_are_the_requested_ones_and_the_stop(self):
        full, _ = solve_cg(self.op, self.g, 40)
        stop = full[-1].iterations
        some, _ = solve_cg(self.op, self.g, 40, steps=(2, 4, 8, 16, 32))
        assert [s.iterations for s in some] == sorted({n for n in (2, 4, 8, 16, 32) if n <= stop} | {stop})
        by_step = {s.iterations: s for s in full}
        for sol in some:
            ref = by_step[sol.iterations]
            assert np.array_equal(sol.f_N_coeffs, ref.f_N_coeffs)
            assert np.array_equal(sol.element.values, ref.element.values)

    def test_basis_is_built_on_the_initial_residual(self):
        f0 = Func.from_poly((1.0, 2.0), [1.0])
        sols, kb = solve_cg(self.op, self.g, 6, f0=f0)
        r0 = self.g - self.op.apply(f0)
        assert (kb.element(1) - (1.0 / r0.norm()) * r0).norm() < 1e-14
        for sol in sols:
            offset = lincomb(sol.f_N_coeffs, kb.elements(sol.iterations))
            assert (f0 + offset - sol.element).norm() < 1e-13

    def test_vanishing_residual_has_no_basis(self):
        sols, kb = solve_cg(self.op, Func.zero((1.0, 2.0)), 5)
        assert kb is None and len(sols) == 1
        assert sols[0].iterations == 0 and sols[0].element.norm() == 0

    def test_indefinite_projection_rejected(self):
        """Flagged self-adjoint and positive, but A e_1 = 0: T_1 = 0."""
        op = MultiplicationSeq(constant_law(0.0))
        assert op.self_adjoint and op.positive
        with pytest.raises(CapabilityError, match="not positive definite"):
            solve_cg(op, Seq.basis_vector(1), 5)


def eager_solve_gmres(op, g, N_max, tol=1e-10, steps=None):
    """solve_gmres as it was before it stopped the recursion at
    convergence: all N_max + 1 Arnoldi vectors first, then the Givens
    residuals and the solves.  The reference for the step-wise solver."""
    gnorm = g.norm()
    if gnorm == 0:
        raise ValueError("gmres needs a nonzero datum")
    basis = krylov_basis(op, g, N_max + 1)
    H = basis.hessenberg
    last = H.shape[1]
    wanted = range(1, last + 1) if steps is None else set(steps)
    near = givens_residuals(H, gnorm) <= tol + RANK_RTOL * gnorm
    sols = []
    for n in range(1, last + 1):
        if not (n in wanted or n == last or near[n - 1]):
            continue
        rhs = np.zeros(n + 1, dtype=complex)
        rhs[0] = gnorm
        y = truncation.qr_least_squares(H[: n + 1, :n], rhs)
        res = float(np.linalg.norm(H[: n + 1, :n] @ y - rhs))
        stop = res <= tol
        if n in wanted or n == last or stop:
            sols.append(ApproxSolution(f_N_coeffs=y, eps_norm=res, iterations=n))
        if stop:
            break
    return sols, basis


def eager_solve_cg(op, g, N_max, f0=None, steps=None):
    """solve_cg as it was before it stopped the recursion at convergence:
    all N_max + 1 Arnoldi vectors first, then a Cholesky check and a
    dense Galerkin solve at every step.  The reference for the step-wise
    solver."""
    if not (op.self_adjoint and op.positive):
        raise CapabilityError(
            f"conjugate gradients needs a self-adjoint positive operator; "
            f"{op.label} is not"
        )
    x0 = (0.0 * g) if f0 is None else f0
    r0 = g - op.apply(x0)
    rnorm0 = r0.norm()
    floor = 1e-15 * max(g.norm(), 1.0)
    if rnorm0 <= floor:
        sol = ApproxSolution(
            f_N_coeffs=np.zeros(0, dtype=complex), eps_norm=0.0, iterations=0, element=x0,
        )
        return [sol], None
    basis = krylov_basis(op, r0, N_max + 1)
    H = basis.hessenberg
    last = H.shape[1]
    wanted = range(1, last + 1) if steps is None else set(steps)
    sols = []
    for n in range(1, last + 1):
        T = H[:n, :n]
        try:
            np.linalg.cholesky(0.5 * (T + T.conj().T))
        except np.linalg.LinAlgError:
            raise CapabilityError(
                f"{op.label} is not positive on the Krylov space (T_{n} is "
                f"not positive definite)"
            ) from None
        rhs = np.zeros(n, dtype=complex)
        rhs[0] = rnorm0
        y = np.linalg.solve(T, rhs)
        stop = n == last or abs(H[n, n - 1] * y[-1]) <= floor
        if n in wanted or stop:
            sols.append(
                ApproxSolution(
                    f_N_coeffs=y,
                    eps_norm=float(np.linalg.norm(T @ y - rhs)),
                    iterations=n,
                    element=x0 + lincomb(y, basis.elements(n)),
                )
            )
        if stop:
            break
    return sols, basis


def indefinite_mult_x():
    """Multiplication by x on [-0.5, 2], flagged positive: T_1 to T_3
    are positive definite, T_4 is not."""
    op = MultiplicationX((-0.5, 2.0))
    op.positive = True
    return op, Func.from_poly((-0.5, 2.0), [0, 0, 1])


CG_PROBLEMS = {
    "mult-x": (MultiplicationX((1.0, 2.0)), Func.from_poly((1.0, 2.0), [0, 0, 1])),
    "mult-x-0.75": (MultiplicationX((0.75, 2.0)), Func.from_poly((0.75, 2.0), [0.3, 1, 0.5])),
    "mult-x-0.7": (MultiplicationX((0.7, 1.9)), Func.from_poly((0.7, 1.9), [0, 0, 1])),
    # spectrum down to 0: no early stop
    "mult-x-0-1": (MultiplicationX((0.0, 1.0)), Func.from_poly((0.0, 1.0), [0.3, 1, 0.5])),
    "mult-x-0-1-x2": (MultiplicationX((0.0, 1.0)), Func.from_poly((0.0, 1.0), [0, 0, 1])),
    # the Krylov space is exhausted after three steps
    "mult-seq": GMRES_PROBLEMS["mult-seq"],
}

EAGER_STEPS = [None, (1, 2, 5, 10, 20, 50)]


def assert_same_solutions(got, want):
    """Same steps, with bitwise the same coordinates, defects and
    (for CG) iterates."""
    assert [s.iterations for s in got] == [s.iterations for s in want]
    for a, b in zip(got, want):
        assert_same_bits(a.f_N_coeffs, b.f_N_coeffs)
        assert a.eps_norm == b.eps_norm
        if b.element is None:
            assert a.element is None
        else:
            assert a.element.origin == b.element.origin and a.element.osc == b.element.osc == {}
            assert_same_bits(a.element.values, b.element.values)


@pytest.mark.bitwise
class TestKrylovMatchesEagerReference:
    """The step-wise solvers return bitwise what the solvers that built
    every Arnoldi vector first returned."""

    @pytest.mark.parametrize("steps", EAGER_STEPS)
    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 0.0])
    @pytest.mark.parametrize("name", sorted(GMRES_PROBLEMS))
    def test_gmres(self, name, tol, steps):
        op, g = GMRES_PROBLEMS[name]
        sols, kb = solve_gmres(op, g, 60, tol=tol, steps=steps)
        ref, ref_kb = eager_solve_gmres(op, g, 60, tol=tol, steps=steps)
        assert_same_solutions(sols, ref)
        assert kb.label == ref_kb.label

    @pytest.mark.parametrize("steps", EAGER_STEPS)
    @pytest.mark.parametrize("name", sorted(CG_PROBLEMS))
    def test_cg(self, name, steps):
        op, g = CG_PROBLEMS[name]
        sols, kb = solve_cg(op, g, 60, steps=steps)
        ref, ref_kb = eager_solve_cg(op, g, 60, steps=steps)
        assert_same_solutions(sols, ref)
        assert kb.label == ref_kb.label

    def test_cg_with_an_initial_guess(self):
        op, g = CG_PROBLEMS["mult-x-0.75"]
        f0 = Func.from_poly((0.75, 2.0), [1.0, -0.5])
        assert_same_solutions(solve_cg(op, g, 40, f0=f0)[0], eager_solve_cg(op, g, 40, f0=f0)[0])

    def test_exhausted_space_has_the_same_basis(self):
        op, g = GMRES_PROBLEMS["mult-seq"]
        for solve, eager in ((solve_gmres, eager_solve_gmres), (solve_cg, eager_solve_cg)):
            _, kb = solve(op, g, 20, steps=(1,))
            _, ref_kb = eager(op, g, 20, steps=(1,))
            assert kb.exhausted and ref_kb.exhausted and kb.size == ref_kb.size == 3
            assert_same_bits(kb.hessenberg, ref_kb.hessenberg)

    @pytest.mark.parametrize(
        "make,first",
        [
            (indefinite_mult_x, "T_4"),
            # T_1 = 0 is singular, and the space is exhausted at once
            (lambda: (MultiplicationSeq(constant_law(0.0)), Seq.basis_vector(1)), "T_1"),
        ],
    )
    @pytest.mark.parametrize("steps", [None, (50,)])
    def test_cg_not_positive_definite_same_message(self, make, first, steps):
        op, g = make()
        with pytest.raises(CapabilityError) as ref:
            eager_solve_cg(op, g, 30, steps=steps)
        with pytest.raises(CapabilityError) as got:
            solve_cg(op, g, 30, steps=steps)
        assert str(got.value) == str(ref.value)
        assert f"({first} is not positive definite)" in str(ref.value)


def _krylov_ini(operator, datum, n_list, solver, exact=None):
    exact_line = f"exact_solution = {exact}\n" if exact else ""
    return (
        f"[problem]\noperator = {operator}\ndatum = {datum}\n{exact_line}"
        f"[truncation]\ntrial = krylov\ntest = krylov\nn_list = {n_list}\n"
        f"solver = {solver}\ntol = 1e-10\n"
        "[output]\ncsv = out.csv\ntracked = 1,2,3,5,10,40\n"
    )


@pytest.mark.bitwise
class TestKrylovCsvMatchesEagerReference:
    """CLI runs write the same bytes as with the eager solvers patched in,
    tracked components past the stop and blanks past a breakdown included."""

    def _both(self, tmp_path, monkeypatch, text):
        from hilbtrunc import cli

        (tmp_path / "k.ini").write_text(text)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "k.ini", "--out", "new.csv"]) == 0
        with monkeypatch.context() as m:
            m.setattr(cli, "solve_gmres", eager_solve_gmres)
            m.setattr(cli, "solve_cg", eager_solve_cg)
            assert cli.main(["run", "k.ini", "--out", "ref.csv"]) == 0
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        return new.decode().splitlines()

    @pytest.mark.parametrize("solver", ["gmres", "cg"])
    def test_stop_before_a_tracked_component(self, tmp_path, monkeypatch, solver):
        lines = self._both(
            tmp_path, monkeypatch,
            _krylov_ini("mult-x:1,2", "poly:0,0,1", "5,10,50", solver, exact="poly:0,1"),
        )
        header = lines.index(next(l for l in lines if l.startswith("N,")))
        columns = lines[header].split(",")
        rows = [l.split(",") for l in lines[header + 1 :]]
        stop = int(rows[-1][0])
        assert stop < 40
        # the 40th Krylov vector exists: its components are written
        assert all(r[columns.index("res_c_40")] and r[columns.index("err_c_40")] for r in rows)

    @pytest.mark.parametrize("solver", ["gmres", "cg"])
    def test_breakdown(self, tmp_path, monkeypatch, solver):
        lines = self._both(
            tmp_path, monkeypatch, _krylov_ini("mult-seq:pow:1,1", "basis-e:2", "1,2,4", solver)
        )
        header = lines.index(next(l for l in lines if l.startswith("N,")))
        columns = lines[header].split(",")
        rows = [l.split(",") for l in lines[header + 1 :]]
        assert [r[0] for r in rows] == ["1"]
        assert rows[0][columns.index("res_c_1")] and not rows[0][columns.index("res_c_2")]


class TestKrylovWork:
    def test_gmres_applies_the_operator_only_up_to_the_stop(self, monkeypatch):
        """volterra at N_max = 240 stops at step 191: one apply per step
        taken, not one per vector of N_max + 1."""
        op, g = GMRES_PROBLEMS["volterra"]
        calls = []
        apply = Volterra.apply

        def counted(self, f):
            calls.append(None)
            return apply(self, f)

        monkeypatch.setattr(Volterra, "apply", counted)
        sols, kb = solve_gmres(op, g, 240, tol=1e-10)
        stop = sols[-1].iterations
        assert stop == 191 and kb.hessenberg.shape[1] == stop
        assert len(calls) <= stop + 1

    def test_cg_steps_the_recursion_only_up_to_the_stop(self, monkeypatch):
        """mult-x at N_max = 60 stops at step 20: one step and one apply
        per iterate, plus the apply of the initial residual."""
        op, g = CG_PROBLEMS["mult-x"]
        calls = []
        apply = MultiplicationX.apply

        def counted(self, f):
            calls.append(None)
            return apply(self, f)

        monkeypatch.setattr(MultiplicationX, "apply", counted)
        sols, kb = solve_cg(op, g, 60)
        stop = sols[-1].iterations
        assert stop == 20 and kb.done == stop and len(kb.vectors) == stop + 1
        assert len(calls) == stop + 1 and kb.size == 61 and not kb.exhausted

    @pytest.mark.parametrize(
        "name,steps", [("mult-x-0-1", (5, 10, 20, 40)), ("mult-x", (2, 4)), ("mult-x-0.7", None)]
    )
    def test_cg_solves_only_returned_and_near_floor_steps(self, monkeypatch, name, steps):
        op, g = CG_PROBLEMS[name]
        ref, ref_kb = eager_solve_cg(op, g, 60)
        H = ref_kb.hessenberg
        floor = 1e-15 * max(g.norm(), 1.0)
        near = sum(
            abs(H[s.iterations, s.iterations - 1] * s.f_N_coeffs[-1])
            <= 2 * truncation.CG_FLOOR_MARGIN * floor
            for s in ref
        )
        counts = {"solve": 0, "cholesky": 0}
        for fname in counts:
            original = getattr(np.linalg, fname)

            def counted(*args, _original=original, _name=fname):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(np.linalg, fname, counted)
        sols, _ = solve_cg(op, g, 60, steps=steps)
        assert counts["solve"] <= len(sols) + near + 1
        assert counts["cholesky"] == 1
        if name == "mult-x-0-1":
            assert near == 0 and sols[-1].iterations == 60


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
