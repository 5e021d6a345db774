"""Tests for the trial/test orthonormal systems."""

import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from hilbtrunc.core import CapabilityError, gauss_legendre, singular_values
from hilbtrunc.cli import make_basis, parse_element
from hilbtrunc.elements import CoordinateBlock, Func, Seq, inner, inner_matrix
from hilbtrunc.operators import (
    MultiplicationSeq,
    MultiplicationX,
    RightShift,
    Volterra,
    WeightedRightShift,
    constant_law,
    geometric_law,
    parse_operator,
    power_law,
)
from hilbtrunc.bases import (
    BREAKDOWN_RTOL,
    KrylovBasis,
    adversarial_test_basis,
    arnoldi,
    canonical_basis,
    fourier_basis,
    fourier_mode_number,
    krylov_basis,
    legendre_basis,
    svd_bases,
)
from hilbtrunc.truncation import compress
from oracles import eval_at


def gram(basis, n):
    els = basis.elements(n)
    return np.array([[inner(u, v) for v in els] for u in els])


class TestLegendreBasis:
    def test_first_element_is_constant_one(self):
        el = legendre_basis((0.0, 1.0)).element(1)
        np.testing.assert_allclose(eval_at(el, np.linspace(0, 1, 5)).real, 1.0, atol=1e-14)

    def test_second_element_closed_form(self):
        """Normalizing x - 1/2 by hand gives sqrt(3)(2x - 1)."""
        el = legendre_basis((0.0, 1.0)).element(2)
        xs = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(
            eval_at(el, xs).real, math.sqrt(3.0) * (2 * xs - 1), atol=1e-13
        )

    def test_unit_norm_at_degree_100(self):
        """Recurrence evaluation keeps the quadrature norm within 1% of 1
        even at high degree."""
        el = legendre_basis((0.0, 1.0)).element(100)
        rule = gauss_legendre(160, 0.0, 1.0)
        nrm = math.sqrt(
            float(np.sum(rule.weights * np.abs(eval_at(el, rule.nodes)) ** 2))
        )
        assert abs(nrm - 1.0) < 0.01

    def test_gram_identity(self):
        g = gram(legendre_basis((1.0, 2.0)), 30)
        np.testing.assert_allclose(g, np.eye(30), atol=1e-10)

    def test_gram_identity_under_quadrature(self):
        basis = legendre_basis((0.0, 1.0))
        rule = gauss_legendre(64, 0.0, 1.0)
        vals = np.array([eval_at(basis.element(n), rule.nodes) for n in range(1, 31)])
        g = (vals * rule.weights) @ np.conj(vals).T
        np.testing.assert_allclose(g, np.eye(30), atol=1e-10)


class TestFourierBasis:
    def test_enumeration_is_symmetric(self):
        assert [fourier_mode_number(n) for n in range(1, 8)] == [0, 1, -1, 2, -2, 3, -3]
        assert all(type(fourier_mode_number(n)) is int for n in range(1, 8))
        assert fourier_mode_number(np.arange(1, 8)).tolist() == [0, 1, -1, 2, -2, 3, -3]

    def test_first_element_is_constant(self):
        el = fourier_basis((1.0, 2.0)).element(1)
        np.testing.assert_allclose(eval_at(el, np.linspace(1, 2, 5)).real, 1.0, atol=1e-14)

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


@pytest.mark.bitwise
class TestKrylovBasisOnDemand:
    """A Krylov family builds its vectors when they are asked for, with
    the recursion an eagerly built basis runs."""

    def test_elements_are_built_on_demand_bit_for_bit(self):
        op = MultiplicationX((1.0, 2.0))
        g = Func.from_poly((1.0, 2.0), [0, 0, 1])
        kb = KrylovBasis(op, g, 30)
        assert kb.size == 30 and kb.hessenberg.shape == (1, 0) and not kb.exhausted
        ref = krylov_basis(op, g, 30)
        assert bitwise_equal(kb.element(12).values, ref.element(12).values)
        assert kb.hessenberg.shape == (12, 11)
        assert kb.has(30) and kb.hessenberg.shape == (30, 29)
        assert not kb.has(31) and kb.hessenberg.shape == (30, 29)
        assert bitwise_equal(kb.hessenberg, ref.hessenberg)
        for n in range(1, 31):
            assert bitwise_equal(kb.element(n).values, ref.element(n).values)

    def test_breakdown_found_on_demand_lowers_the_size(self):
        op, g = MultiplicationSeq(power_law(1.0, 1.0)), Seq("nat", 1, SEQ_DATUM[:3])
        kb = KrylovBasis(op, g, 10)
        assert kb.has(3) and not kb.exhausted and kb.size == 10
        assert not kb.has(4) and kb.exhausted and kb.size == 3
        assert kb.hessenberg.shape == (4, 3)
        with pytest.raises(IndexError):
            kb.element(4)

    def test_step_says_whether_another_step_can_follow(self):
        """step() is True while another step fits, False at the size limit
        and at a breakdown, which lowers `size` to the vectors built."""
        op, g = MultiplicationX((1.0, 2.0)), Func.from_poly((1.0, 2.0), [0, 0, 1])
        kb = KrylovBasis(op, g, 4)
        assert [kb.step() for _ in range(3)] == [True, True, False]
        assert kb.size == len(kb.vectors) == 4 and kb.done == 3 and not kb.exhausted
        one = KrylovBasis(op, g, 1)
        assert one.has(1) and not one.has(2) and one.done == 0
        # the Krylov space of this datum has three dimensions
        op, g = MultiplicationSeq(power_law(1.0, 1.0)), Seq("nat", 1, SEQ_DATUM[:3])
        for size in (4, 10):
            kb = KrylovBasis(op, g, size)
            assert [kb.step() for _ in range(3)] == [True, True, False]
            assert kb.exhausted and kb.size == len(kb.vectors) == 3 and kb.done == 3
            assert kb.hessenberg.shape == (4, 3)
        kb = KrylovBasis(op, g, 3)
        assert [kb.step() for _ in range(2)] == [True, False]
        assert not kb.exhausted and kb.size == len(kb.vectors) == 3

    def test_a_dropped_basis_is_freed_at_once(self):
        """No reference cycle: the basis, its H and its vectors go with
        the last reference, without waiting for a garbage collection."""
        kb = krylov_basis(Volterra(), Func.from_poly((0.0, 1.0), [0, 0, 0.5]), 10)
        kb.element(3)
        ref = weakref.ref(kb)
        gc.disable()
        try:
            del kb
            assert ref() is None
        finally:
            gc.enable()


def elementwise_arnoldi(op, g, steps, breakdown_rtol=BREAKDOWN_RTOL):
    """The element-by-element Gram-Schmidt arnoldi used to run: the reference."""
    vectors = [(1.0 / g.norm()) * g]
    H = np.zeros((steps + 1, steps), dtype=complex)
    exhausted = False
    done = 0
    for k in range(steps):
        w = op.apply(vectors[k])
        pre = w.norm()
        for i in range(k + 1):
            hik = inner(vectors[i], w)
            H[i, k] = hik
            w = w - hik * vectors[i]
        hn = w.norm()
        H[k + 1, k] = hn
        done = k + 1
        if hn <= breakdown_rtol * max(pre, 1e-300):
            exhausted = True
            break
        vectors.append((1.0 / hn) * w)
    return vectors, H[: done + 1, :done], exhausted


def bitwise_equal(a, b):
    """Equal arrays, down to the sign of every zero."""
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


class LeftShift(RightShift):
    """The left shift on l2(N): e_1 has an empty image."""

    def apply(self, f):
        return self.adjoint_apply(f)


class SparseMatrix(RightShift):
    """The finite matrix with these nonzero entries {(row, col): value},
    1-indexed, acting on the first coordinates of l2(N)."""

    def __init__(self, entries):
        super().__init__()
        n = max(max(key) for key in entries)
        self.matrix = np.zeros((n, n))
        for (row, col), value in entries.items():
            self.matrix[row - 1, col - 1] = value

    def apply(self, f):
        x = np.zeros(len(self.matrix), dtype=complex)
        x[f.origin - 1 : f.origin - 1 + len(f.values)] = f.values
        return Seq("nat", 1, self.matrix @ x)


class TrimmedSparseMatrix(SparseMatrix):
    """A SparseMatrix whose images are stored on the window of their
    nonzero coefficients, so that a later vector's window can reach past
    both the image's and the first vector's."""

    def apply(self, f):
        values = super().apply(f).values
        nonzero = np.flatnonzero(values)
        if not len(nonzero):
            return Seq("nat", 1, [])
        first, last = int(nonzero[0]), int(nonzero[-1])
        return Seq("nat", 1 + first, values[first : last + 1])


SEQ_DATUM = np.array([1.0, 0.5j, -0.25, 0.0, 0.125])
GAPPED_DATUM = np.array([1.0, 0.0, 0.0, 0.0, 0.5])
ARNOLDI_PINS = {
    "volterra": ("volterra", Func.from_poly((0.0, 1.0), [0.3, -1.0, 0.5])),
    "mult-x": ("mult-x:1,2", Func.from_poly((1.0, 2.0), [0.0, 0.0, 1.0])),
    "weighted-shift-nat": ("weighted-right-shift:pow:1,1", Seq("nat", 1, SEQ_DATUM)),
    "weighted-shift-int": ("weighted-right-shift-z:pow1:1,1", Seq("int", -2, SEQ_DATUM)),
    "right-shift-e1": ("right-shift", Seq.basis_vector(1)),
    "right-shift-e2": ("right-shift", Seq.basis_vector(2)),
    # a copied window keeps -0.0, which the first difference turns into +0.0
    "right-shift-signed-zeros": (
        "right-shift",
        Seq("nat", 3, np.array([1.0, complex(-0.0, -0.0), -0.5, complex(0.0, -0.0)])),
    ),
    "mult-seq-breakdown": ("mult-seq:const:3", Seq.basis_vector(1)),
    "mult-seq-pow": ("mult-seq:pow:1,1", Seq("nat", 1, SEQ_DATUM)),
    "left-shift-empty-image": (LeftShift(), Seq("nat", 1, [1.0])),
    # spans that meet only partly: a gap inside the datum's window
    "weighted-shift-gapped": ("weighted-right-shift:pow:1,1", Seq("nat", 1, GAPPED_DATUM)),
    "mult-seq-gapped": ("mult-seq:pow:1,1", Seq("nat", 1, GAPPED_DATUM)),
    "weighted-shift-int-e0": ("weighted-right-shift-z:pow1:1,1", Seq.basis_vector(0, "int")),
    # a later vector misses the image but meets a subtracted term, at
    # roundoff: w's span has to grow below / above the image's
    "sparse-span-grows-down": (
        SparseMatrix({(2, 7): 1.0, (4, 4): 1.0, (7, 8): -2.0, (8, 2): -2.0, (8, 4): 1.0}),
        Seq("nat", 1, [0.0, 0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 0.0]),
    ),
    # e3 -> e1 -> e4 -> e2 -> e5 -> e3 + e6 / 2: after w's first growth,
    # a later window reaches below w's (step 2) and above it (step 3)
    "window-reaches-out": (
        TrimmedSparseMatrix(
            {(1, 3): 1.0, (4, 1): 1.0, (2, 4): 1.0, (5, 2): 1.0, (3, 5): 1.0, (6, 5): 0.5}
        ),
        Seq.basis_vector(3),
    ),
    "sparse-span-grows-up": (
        SparseMatrix({(1, 3): 0.1, (2, 3): 0.5, (3, 2): -1.0, (4, 2): 0.5, (5, 1): -1.0}),
        Seq("nat", 1, [0.0, 1.0, 0.0, 1.0, 0.0]),
    ),
}


@pytest.mark.bitwise
class TestArnoldiOnWindows:
    @pytest.mark.parametrize(
        "case, steps",
        [(case, steps) for steps in (0, 1, 7, 60) for case in sorted(ARNOLDI_PINS)]
        # the length of the benchmark's shift and volterra runs, where most
        # windows lie inside w's; mult-x as long as the benchmark's GMRES run
        + [("right-shift-e1", 280), ("volterra", 280), ("mult-x", 120)],
    )
    def test_bitwise_equal_to_elementwise_mgs(self, case, steps):
        """The coefficient windows give H and every vector of the
        element-by-element recursion bit for bit, signed zeros included."""
        spec, g = ARNOLDI_PINS[case]
        op = parse_operator(spec) if isinstance(spec, str) else spec
        vectors, H, exhausted = arnoldi(op, g, steps)
        ref_vectors, ref_H, ref_exhausted = elementwise_arnoldi(op, g, steps)
        assert exhausted == ref_exhausted and len(vectors) == len(ref_vectors)
        assert H.shape == ref_H.shape and bitwise_equal(H, ref_H)
        for got, ref in zip(vectors, ref_vectors):
            assert type(got) is type(ref) and got.origin == ref.origin and got.osc == ref.osc == {}
            assert bitwise_equal(got.values, ref.values)

    @pytest.mark.parametrize("case", ["right-shift-e1", "weighted-shift-int-e0"])
    def test_shift_work_is_linear_in_steps(self, monkeypatch, case):
        """Terms whose nonzero coefficients cannot meet take no inner
        product: O(steps) calls to np.vdot, not steps (steps + 1) / 2."""
        spec, g = ARNOLDI_PINS[case]
        calls = []
        vdot = np.vdot

        def counting_vdot(a, b):
            calls.append(None)
            return vdot(a, b)

        monkeypatch.setattr(np, "vdot", counting_vdot)
        steps = 200
        arnoldi(parse_operator(spec), g, steps)
        assert len(calls) <= steps
        # the count is live: on the weighted shift from a dense datum every
        # term meets, one call each but the first step's
        spec, g = ARNOLDI_PINS["weighted-shift-nat"]
        calls.clear()
        arnoldi(parse_operator(spec), g, steps)
        assert len(calls) == steps * (steps + 1) // 2 - 1

    @pytest.mark.parametrize("case", ["volterra", "mult-seq-pow"])
    def test_images_keep_their_coefficients(self, case):
        """The first difference goes to a fresh array even where the
        image's window holds the vector's: no image is written to."""
        spec, g = ARNOLDI_PINS[case]
        op = parse_operator(spec)
        images = []

        def recorded(f):
            image = type(op).apply(op, f)
            images.append((image, np.copy(image.values)))
            return image

        op.apply = recorded
        arnoldi(op, g, 7)
        assert images
        for image, before in images:
            assert bitwise_equal(image.values, before)

    def test_breakdown_cases_break_down(self):
        assert arnoldi(parse_operator("mult-seq:const:3"), Seq.basis_vector(1), 5)[2]
        vectors, H, exhausted = arnoldi(LeftShift(), Seq("nat", 1, [1.0]), 5)
        assert exhausted and len(vectors) == 1 and H.shape == (2, 1)


class AtomicVolterra(Volterra):
    """Integration followed by adding e^{2ix}: images hold an atom."""

    def apply(self, f):
        return super().apply(f) + Func.from_osc(f.interval, {(0, 2.0): 1.0})


class TestKrylovNeedsAtomFreeData:
    """Krylov vectors of oscillatory data pile up atoms x^m e^{iwx} of
    growing m whose coefficients cancel; such bases are refused."""

    def test_seed_with_atoms(self):
        op = Volterra()
        g = Func.from_poly((0.0, 1.0), [0.0, 1.0]) + Func.from_osc((0.0, 1.0), {(0, 3.0): 0.5})
        with pytest.raises(CapabilityError, match="atom-free.*ROADMAP"):
            krylov_basis(op, g, 5)

    def test_image_with_atoms(self):
        with pytest.raises(CapabilityError, match="atom-free"):
            krylov_basis(AtomicVolterra(), Func.from_poly((0.0, 1.0), [1.0]), 5)

    def test_zero_atoms_are_no_atoms(self):
        op = Volterra()
        g = Func((0.0, 1.0), np.array([1.0, 0.5]), {(0, 3.0): 0.0})
        kb = krylov_basis(op, g, 5)
        assert kb.size == 5 and all(not kb.element(n).osc for n in range(1, 6))


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


@pytest.mark.bitwise
class TestAdversarialBasis:
    def test_every_truncation_singular(self):
        """The defining property: sigma_min(A_N) <= 1e-10 for all N, with
        singular_values as the oracle."""
        op = Volterra()
        trial = legendre_basis((0.0, 1.0))
        n_max = 12
        test = adversarial_test_basis(op, trial, n_max)
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
        test = adversarial_test_basis(op, trial, 4)
        v1 = test.element(1)
        assert abs(v1.norm() - 1.0) < 1e-12
        assert abs(inner(v1, op.apply(trial.element(1)))) < 1e-12

    def test_family_orthonormal(self):
        op = WeightedRightShift(power_law(1.0, 1.0))
        trial = canonical_basis()
        test = adversarial_test_basis(op, trial, 8)
        np.testing.assert_allclose(gram(test, 8), np.eye(8), atol=1e-10)

    def test_dense_nearly_dependent_images(self):
        """Images dense in all 4 n_max frame coordinates, with singular
        values from 1 down to 1e-8: a single Gram-Schmidt pass leaves the
        family 3e-3 from orthonormal here; the second restores it."""
        n = 40
        rng = np.random.default_rng(0)
        U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        V, _ = np.linalg.qr(rng.standard_normal((4 * n, n)) + 1j * rng.standard_normal((4 * n, n)))
        images = (U * np.logspace(0, -8, n)) @ V.conj().T
        space = ("func", (0.0, 1.0))
        op = SimpleNamespace(
            label="dense",
            space=space,
            apply_block=lambda block: CoordinateBlock(space, images, np.arange(4 * n), np.zeros((n, 0))),
        )
        test = adversarial_test_basis(op, legendre_basis((0.0, 1.0)), n)
        coords = test.block(n).coords
        A = coords.conj() @ images.T
        for N in range(1, n + 1):
            assert np.max(np.abs(A[N - 1, :N])) <= 1e-12 * np.max(np.abs(A))
        assert np.max(np.abs(coords.conj() @ coords.T - np.eye(n))) <= 1e-13
        # no v_N is a frame vector: each came through the two passes
        assert np.all(np.count_nonzero(coords, axis=1) > 1)

    @pytest.mark.parametrize(
        "op,trial",
        [
            (Volterra(), legendre_basis((0.0, 1.0))),
            (WeightedRightShift(power_law(1.0, 1.0)), canonical_basis()),
        ],
    )
    def test_family_lies_in_the_first_four_n_max_frame_elements(self, op, trial):
        """The fixed horizon: each v_N is a unit combination of exactly the
        first 4 n_max elements of the working frame (Legendre polynomials
        or canonical vectors), whose coefficients are its coordinates."""
        n_max = 5
        test = adversarial_test_basis(op, trial, n_max)
        for v in test.elements(n_max):
            assert v.origin == (0 if isinstance(v, Func) else 1)
            assert len(v.values) == 4 * n_max
            assert abs(np.linalg.norm(v.values) - 1.0) < 1e-12


#: Every operator kind the CLI parses, with the frame its trial is taken from.
FRAME_OPERATORS = [
    ("volterra", "legendre"),
    ("mult-x:1,2", "legendre"),
    ("right-shift", "canonical"),
    ("weighted-right-shift:pow:1,1", "canonical"),
    ("weighted-right-shift-z:pow1:1,1", "canonical"),
    ("mult-seq:pow:1,1", "canonical"),
]


def adversarial_at(operator, trial_name, n_max):
    """(A, V^H V) of the adversarial family against a CLI trial: A is the
    compression at n_max, whose leading N x N block is A_N."""
    op = parse_operator(operator)
    datum = parse_element("poly:0.3,1,0.5" if op.space[0] == "func" else "basis-e:1", op)
    trial = make_basis(trial_name, op, datum, n_max)
    test = make_basis("adversarial", op, datum, n_max, trial=trial)
    block = test.block(n_max)
    return compress(op, trial, test, n_max, datum).A_N, inner_matrix(block, block)


def adversarial_by_gram_schmidt(op, trial, n_max):
    """Frame coordinates of the adversarial family with every v_N joined
    through two classical Gram-Schmidt passes: the reference."""
    frame = legendre_basis(op.space[1]) if op.space[0] == "func" else canonical_basis(op.space[1])
    images = op.apply_block(trial.block(n_max))
    width = 4 * n_max
    image_coords = inner_matrix(frame.block(width, sparse=True), images).T
    Q = np.zeros((2 * n_max, width), dtype=complex)
    leverage = np.zeros(width)
    rows, picked = 0, []

    def join(c):
        nonlocal rows
        r = c
        for _ in range(2):
            r = r - np.conj(Q[:rows] @ np.conj(r)) @ Q[:rows]
        norm = np.linalg.norm(r)
        if norm > BREAKDOWN_RTOL * np.linalg.norm(c):
            Q[rows] = r / norm
            leverage[:] += np.abs(Q[rows]) ** 2
            rows += 1

    for image in image_coords:
        join(image)
        picked.append(rows)
        join(np.eye(1, width, int(np.argmin(leverage)), dtype=complex)[0])
    return Q[picked]


@pytest.mark.bitwise
class TestAdversarialContractAtScale:
    """Row N of A_N vanishes and the family is orthonormal, at N = 200."""

    @pytest.mark.parametrize("operator,trial", FRAME_OPERATORS, ids=[o for o, _ in FRAME_OPERATORS])
    def test_frame_trial_rows_are_exact_zeros(self, operator, trial):
        """On a banded operator's frame the least-leverage frame vector
        lies past the images: every v_N is a frame vector, so the lower
        triangle of A, row N of each A_N included, is exact zeros."""
        A, gram = adversarial_at(operator, trial, 200)
        assert not np.any(np.tril(A)) and np.any(A)
        assert np.array_equal(gram, np.eye(200))

    @pytest.mark.parametrize("trial", ["fourier", "krylov"])
    def test_dense_trial_rows_vanish_to_roundoff(self, trial):
        A, gram = adversarial_at("volterra", trial, 200)
        for N in range(1, 201):
            assert np.max(np.abs(A[N - 1, :N])) <= 1e-12 * np.max(np.abs(A[:N, :N]))
        assert np.max(np.abs(gram - np.eye(200))) <= 1e-13

    def test_two_builds_are_bitwise_equal(self):
        op = Volterra()
        trial = fourier_basis(op.space[1])
        first, second = (adversarial_test_basis(op, trial, 200).block(200) for _ in range(2))
        assert np.array_equal(first.coords, second.coords)

    @pytest.mark.parametrize(
        "operator,trial",
        [("volterra", "legendre"), ("mult-x:0.75,2", "legendre"), ("right-shift", "canonical")],
    )
    def test_frame_vectors_join_as_through_gram_schmidt(self, operator, trial):
        """A frame vector whose column of Q is zeros joins Q without the
        two passes; every v_N equals the passes-only loop's bit for bit."""
        op = parse_operator(operator)
        datum = parse_element("poly:0.3,1,0.5" if op.space[0] == "func" else "basis-e:1", op)
        trial_basis = make_basis(trial, op, datum, 200)
        ref = adversarial_by_gram_schmidt(op, trial_basis, 200)
        assert np.any(np.count_nonzero(ref, axis=1) == 1)  # some v_N is a frame vector
        test = adversarial_test_basis(op, trial_basis, 200)
        for n, row in enumerate(ref, start=1):
            v = test.element(n)
            assert bitwise_equal(v.values, row)


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
