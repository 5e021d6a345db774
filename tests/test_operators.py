"""Tests for the model-operator zoo and its capability interface."""

import math

import numpy as np
import pytest

from hilbtrunc.cli import make_basis
from hilbtrunc.core import CapabilityError, SpaceMismatchError
from hilbtrunc.elements import Func, Seq, inner, stack
from hilbtrunc.operators import (
    MultiplicationSeq,
    MultiplicationX,
    RightShift,
    SequenceLaw,
    Volterra,
    WeightedRightShift,
    WeightedRightShiftZ,
    constant_law,
    geometric_law,
    parse_law,
    parse_operator,
    power_law,
    shifted_power_law,
)
from oracles import eval_at, volterra_power_apply


def random_func(rng, interval=(0.0, 1.0), deg=6, modes=(1, -2)):
    leg = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
    a, b = interval
    osc = {
        (0, 2 * math.pi * k / (b - a)): complex(*rng.standard_normal(2)) for k in modes
    }
    return Func(interval, leg, osc)


def random_seq(rng, domain="nat", width=12):
    origin = 1 if domain == "nat" else -width // 2
    return Seq(domain, origin, rng.standard_normal(width) + 1j * rng.standard_normal(width))


class TestConstruction:
    def test_constructor_kinds(self):
        assert isinstance(Volterra(), Volterra)
        assert MultiplicationX((1, 2)).op_norm == 2.0
        assert RightShift().op_norm == 1.0
        w = WeightedRightShift(power_law(1, 1))
        assert w.compact and w.op_norm == 1.0

    def test_parse_operator_strings(self):
        assert isinstance(parse_operator("volterra"), Volterra)
        assert parse_operator("mult-x:1,2").space == ("func", (1.0, 2.0))
        assert isinstance(parse_operator("weighted-right-shift:pow:1,1"), WeightedRightShift)
        assert parse_operator("weighted-right-shift-z:geom:1,0.5").space == ("seq", "int")
        assert parse_operator("mult-seq:const:2").op_norm == 2.0
        with pytest.raises(ValueError):
            parse_operator("mystery")

    def test_weight_law_validation(self):
        with pytest.raises(ValueError):
            WeightedRightShift(constant_law(1.0))  # not decreasing
        with pytest.raises(ValueError):
            WeightedRightShift(power_law(-1, 1))  # not positive
        with pytest.raises(ValueError):
            WeightedRightShiftZ(power_law(1, 1))  # infinite at index 0
        WeightedRightShiftZ(shifted_power_law(1, 1))  # finite everywhere
        gap = SequenceLaw("gap", lambda n: np.where(n == 3, 0.0, 1.0 / n))
        with pytest.raises(ValueError, match="must be positive"):
            WeightedRightShift(gap)  # zero at 3, then positive again

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            MultiplicationX((2.0, 2.0))

    def test_law_parsing_roundtrip(self):
        for text in ("pow:1,1.5", "pow1:0.4,2", "geom:2,0.5", "const:3"):
            law = parse_law(text)
            assert law.name == text
        with pytest.raises(ValueError):
            parse_law("pow:oops")


class TestApply:
    def test_right_shift_moves_first_vector(self):
        out = RightShift().apply(Seq("nat", 1, np.array([1.0, 0.0])))
        assert out.component(1) == 0.0 and out.component(2) == 1.0

    def test_volterra_on_constant_gives_x(self):
        out = Volterra().apply(Func.from_leg((0.0, 1.0), [1.0]))
        assert (out - Func.from_poly((0.0, 1.0), [0, 1])).norm() < 1e-15

    def test_volterra_on_x_gives_first_datum(self):
        out = Volterra().apply(Func.from_poly((0.0, 1.0), [0, 1]))
        assert (out - Func.from_poly((0.0, 1.0), [0, 0, 0.5])).norm() < 1e-15

    def test_mult_x_on_x_gives_second_datum(self):
        out = MultiplicationX((1.0, 2.0)).apply(Func.from_poly((1.0, 2.0), [0, 1]))
        assert (out - Func.from_poly((1.0, 2.0), [0, 0, 1])).norm() < 1e-15

    def test_weighted_shift_on_basis_vector(self):
        op = WeightedRightShift(geometric_law(1.0, 0.5))
        out = op.apply(Seq.basis_vector(3))
        assert abs(out.component(4) - 0.125) < 1e-15
        assert out.component(3) == 0.0

    def test_space_mismatch_rejected(self):
        with pytest.raises(SpaceMismatchError):
            Volterra().apply(Func.from_leg((1.0, 2.0), [1.0]))
        with pytest.raises(SpaceMismatchError):
            RightShift().apply(Seq.basis_vector(0, "int"))


class TestVolterraPowers:
    def test_first_power_reduces_to_apply(self):
        one = Func.from_leg((0.0, 1.0), [1.0])
        out = volterra_power_apply(1, one)
        assert (out - Func.from_poly((0.0, 1.0), [0, 1])).norm() < 1e-15

    def test_second_power_on_constant(self):
        one = Func.from_leg((0.0, 1.0), [1.0])
        out = volterra_power_apply(2, one)
        assert (out - Func.from_poly((0.0, 1.0), [0, 0, 0.5])).norm() < 1e-15

    def test_third_power_on_constant(self):
        """Symbolic oracle: (1/2) int_0^x (x-y)^2 dy = x^3/6."""
        one = Func.from_leg((0.0, 1.0), [1.0])
        out = volterra_power_apply(3, one)
        assert (out - Func.from_poly((0.0, 1.0), [0, 0, 0, 1.0 / 6.0])).norm() < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_iterated_apply(self, n):
        rng = np.random.default_rng(40 + n)
        f = random_func(rng)
        op = Volterra()
        iterated = f
        for _ in range(n):
            iterated = op.apply(iterated)
        kernel = volterra_power_apply(n, f)
        assert (kernel - iterated).norm() < 1e-10

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            volterra_power_apply(0, Func.from_leg((0.0, 1.0), [1.0]))


class TestExactSvd:
    def test_volterra_leading_triple(self):
        triple = Volterra().exact_svd()
        assert abs(triple.sigma(1) - 2.0 / math.pi) < 1e-15
        xs = np.linspace(0.0, 1.0, 9)
        np.testing.assert_allclose(
            eval_at(triple.right(1), xs).real,
            math.sqrt(2.0) * np.cos(math.pi * xs / 2),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            eval_at(triple.left(1), xs).real,
            math.sqrt(2.0) * np.sin(math.pi * xs / 2),
            atol=1e-13,
        )

    def test_volterra_svd_relation_to_n50(self):
        op = Volterra()
        triple = op.exact_svd()
        for n in range(1, 51):
            lhs = op.apply(triple.right(n)) - triple.sigma(n) * triple.left(n)
            assert lhs.norm() < 1e-10

    def test_volterra_families_orthonormal(self):
        triple = Volterra().exact_svd()
        for fam in (triple.right, triple.left):
            for i in range(1, 6):
                for j in range(1, 6):
                    val = inner(fam(i), fam(j))
                    assert abs(val - (1.0 if i == j else 0.0)) < 1e-12

    def test_weighted_shift_triple(self):
        law = geometric_law(1.0, 0.5)
        triple = WeightedRightShift(law).exact_svd()
        assert abs(triple.sigma(3) - 0.125) < 1e-15
        assert triple.right(3).component(3) == 1.0
        assert triple.left(3).component(4) == 1.0

    def test_capability_absent(self):
        for op in (RightShift(), MultiplicationX((0.0, 1.0)),
                   MultiplicationSeq(power_law(1, 1)),
                   WeightedRightShiftZ(shifted_power_law(1, 1))):
            with pytest.raises(CapabilityError):
                op.exact_svd()

    def test_volterra_plus_adjoint_is_rank_one_projection(self):
        """V + V* acts as f -> <1, f> 1 on random elements."""
        rng = np.random.default_rng(5)
        op = Volterra()
        one = Func.from_leg((0.0, 1.0), [1.0])
        for _ in range(20):
            f = random_func(rng)
            lhs = op.apply(f) + op.adjoint_apply(f)
            rhs = inner(one, f) * one
            assert (lhs - rhs).norm() < 1e-12


class TestAdjoints:
    @pytest.mark.parametrize(
        "opname",
        ["volterra", "mult-x:1,2", "right-shift", "weighted-right-shift:pow:1,1",
         "weighted-right-shift-z:geom:1,0.5", "mult-seq:pow:1,1"],
    )
    def test_adjoint_consistency(self, opname):
        """<v, A u> = <A* v, u> on random pairs (antilinear first slot,
        equivalently <v, A u> = conj(<u, A* v>))."""
        op = parse_operator(opname)
        rng = np.random.default_rng(sum(map(ord, opname)))
        for _ in range(100):
            if op.space[0] == "seq":
                u = random_seq(rng, op.space[1])
                v = random_seq(rng, op.space[1])
            else:
                u = random_func(rng, op.space[1])
                v = random_func(rng, op.space[1])
            lhs = inner(v, op.apply(u))
            rhs = inner(op.adjoint_apply(v), u)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
            assert abs(lhs - np.conj(inner(u, op.adjoint_apply(v)))) < 1e-10 * max(
                1.0, abs(lhs)
            )

    def test_shift_isometry(self):
        rng = np.random.default_rng(17)
        op = RightShift()
        for _ in range(20):
            f = random_seq(rng)
            assert abs(op.apply(f).norm() - f.norm()) < 1e-13


class TestWeightedShiftAlgebra:
    """Adjoint products of the weighted shifts.

    L R multiplies component n by sigma_n^2; R L = R R* places sigma_n^2
    on component n+1, i.e. multiplication by the index-shifted squared
    weights, vanishing on the first component.
    """

    def test_nat_products(self):
        rng = np.random.default_rng(23)
        law = power_law(1.0, 1.0)
        op = WeightedRightShift(law)
        for _ in range(20):
            f = random_seq(rng)
            lr = op.adjoint_apply(op.apply(f))
            expect_lr = f.mapped(lambda n: law(n) ** 2)
            assert (lr - expect_lr).norm() < 1e-13
            rl = op.apply(op.adjoint_apply(f))
            expect_rl = f.mapped(
                lambda n: np.where(n >= 2, law(np.maximum(n - 1, 1)) ** 2, 0.0)
            )
            assert (rl - expect_rl).norm() < 1e-13

    def test_int_products(self):
        rng = np.random.default_rng(29)
        law = geometric_law(1.0, 0.5)
        op = WeightedRightShiftZ(law)
        for _ in range(20):
            f = random_seq(rng, "int")
            lr = op.adjoint_apply(op.apply(f))
            expect_lr = f.mapped(lambda n: law(np.abs(n)) ** 2)
            assert (lr - expect_lr).norm() < 1e-13
            rl = op.apply(op.adjoint_apply(f))
            expect_rl = f.mapped(lambda n: law(np.abs(n - 1)) ** 2)
            assert (rl - expect_rl).norm() < 1e-13

    def test_int_products_do_not_commute(self):
        """The two products differ by an index shift of the weights, so
        they disagree on any basis vector with distinct weight neighbours."""
        op = WeightedRightShiftZ(geometric_law(1.0, 0.5))
        e0 = Seq.basis_vector(0, "int")
        lr = op.adjoint_apply(op.apply(e0))
        rl = op.apply(op.adjoint_apply(e0))
        assert (lr - rl).norm() > 0.5


class TestNormReporting:
    @pytest.mark.parametrize(
        "opname",
        ["volterra", "mult-x:1,2", "right-shift", "weighted-right-shift:pow:1,1",
         "mult-seq:pow:1,1"],
    )
    def test_norm_bounds_random_unit_elements(self, opname):
        op = parse_operator(opname)
        rng = np.random.default_rng(1 + sum(map(ord, opname)))
        for _ in range(100):
            if op.space[0] == "seq":
                u = random_seq(rng, op.space[1])
            else:
                u = random_func(rng, op.space[1])
            u = (1.0 / u.norm()) * u
            assert op.apply(u).norm() <= op.op_norm + 1e-10

    def test_volterra_norm_value(self):
        assert abs(Volterra().op_norm - 2.0 / math.pi) < 1e-15


CLI_OPERATORS = [
    "volterra", "mult-x:1,2", "right-shift", "weighted-right-shift:pow:1,1",
    "weighted-right-shift-z:geom:1,0.5", "mult-seq:pow:1,1",
]


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=complex).tobytes()


def _block_elements(op, rng):
    """Elements of op's space for a block: with atoms (several per
    frequency) for functions; for sequences, windows far apart, with
    exact zeros of both signs, nat windows from index 1 and int windows
    from negative origins.  Each function lists its atoms in (m, w)
    order, the order in which a block sums them; with three or more
    atoms of one frequency listed out of that order, Volterra's `apply`
    and `apply_block` differ at roundoff (see CHANGES.md)."""
    if op.space[0] == "func":
        a, b = op.space[1]
        w = 2 * math.pi / (b - a)
        return [
            random_func(rng, op.space[1], deg=3, modes=(1,)),
            random_func(rng, op.space[1], deg=7, modes=(-2, 3)),
            Func(op.space[1], [0.0, -0.0, 1.5], {(0, w): 0.5 - 1j, (1, w): -2.0, (2, -w): 1j}),
            Func.from_leg(op.space[1], [1.0, -0.0, 0.0, 2.0 - 1j]),
        ]
    domain = op.space[1]
    lo = 1 if domain == "nat" else -7
    signed = Seq(domain, lo + 2, [-0.0, 1.0 - 2j, 0.0, complex(-0.0, -0.0), 3.0])
    return [
        random_seq(rng, domain, width=5),
        Seq(domain, lo, rng.standard_normal(4) + 1j * rng.standard_normal(4)),
        signed,
        Seq(domain, lo + 30, rng.standard_normal(3)),
        Seq.basis_vector(lo + 1, domain),
    ]


@pytest.mark.parametrize("opname", CLI_OPERATORS)
def test_apply_block_rows_equal_apply(opname):
    """Row i of the block image is apply(e_i) bit for bit, signed zeros
    included; the block's other columns hold zeros."""
    op = parse_operator(opname)
    elems = _block_elements(op, np.random.default_rng(sum(map(ord, opname))))
    (block,) = stack(elems)
    out = op.apply_block(block)
    assert out.space == op.space
    for i, e in enumerate(elems):
        image = op.apply(e)
        row = out.coords[i]
        if op.space[0] == "seq":
            pos = np.searchsorted(out.index, np.arange(image.origin, image.origin + len(image.values)))
            assert np.array_equal(out.index[pos], np.arange(image.origin, image.origin + len(image.values)))
            assert _bits(row[pos]) == _bits(image.values)
            assert not np.any(np.delete(row, pos))
        else:
            n = len(image.values)
            assert _bits(row[:n]) == _bits(image.values)
            assert not np.any(row[n:])
            slot = {key: j for j, key in enumerate(out.atoms)}
            for key, c in image.osc.items():
                assert _bits(out.osc[i, slot[key]]) == _bits(c), key
            others = [j for key, j in slot.items() if key not in image.osc]
            assert not np.any(out.osc[i, others])


def _foreign(op):
    """Elements of spaces other than op's."""
    if op.space[0] == "func":
        return [Func.from_leg((-3.0, 5.0), [1.0, 2.0]), Seq.basis_vector(1, "nat"),
                Seq.basis_vector(0, "int")]
    other = "int" if op.space[1] == "nat" else "nat"
    return [Seq.basis_vector(1, other), Func.from_leg((0.0, 1.0), [1.0])]


@pytest.mark.parametrize("opname", CLI_OPERATORS)
def test_foreign_space_rejected(opname):
    op = parse_operator(opname)
    for e in _foreign(op):
        (block,) = stack([e])
        for x in (e, block):
            with pytest.raises(SpaceMismatchError):
                op.apply(x)
            with pytest.raises(SpaceMismatchError):
                op.adjoint_apply(x)
        with pytest.raises(SpaceMismatchError):
            op.apply_block(block)


def _seq_cases(domain, rng):
    lo = 1 if domain == "nat" else -6
    return [
        Seq(domain, lo, rng.standard_normal(6) + 1j * rng.standard_normal(6)),
        Seq(domain, lo + 4, [-0.0, 2.0 - 1j, 0.0, complex(-0.0, 0.0)]),
        Seq.basis_vector(lo, domain),
        Seq.zero(domain),
    ]


@pytest.mark.parametrize(
    "op,reference",
    [
        (MultiplicationSeq(power_law(2.0, 0.5)),
         lambda f: f.mapped(lambda n: np.conj(power_law(2.0, 0.5)(n)))),
        (MultiplicationSeq(SequenceLaw("complex", lambda n: (1 + 2j) / n)),
         lambda f: f.mapped(lambda n: np.conj((1 + 2j) / n))),
        (RightShift(), lambda f: f.shifted(-1)),
        (WeightedRightShift(power_law(1.0, 1.0)),
         lambda f: f.shifted(-1).mapped(power_law(1.0, 1.0))),
        (WeightedRightShiftZ(geometric_law(1.0, 0.5)),
         lambda f: f.shifted(-1).mapped(lambda n: geometric_law(1.0, 0.5)(np.abs(n)))),
    ],
    ids=["mult-seq", "mult-seq-complex", "right-shift", "weighted-right-shift",
         "weighted-right-shift-z"],
)
def test_sequence_adjoints_equal_their_compositions(op, reference):
    """The adjoint shifts back, then multiplies by the conjugate weight:
    bit for bit the composition written out per operator."""
    for f in _seq_cases(op.space[1], np.random.default_rng(5)):
        got, want = op.adjoint_apply(f), reference(f)
        assert (got.domain, got.origin) == (want.domain, want.origin)
        assert _bits(got.values) == _bits(want.values)


#: Every operator kind the CLI parses, with each law kind it takes.
BAND_OPERATORS = [
    "volterra", "mult-x:1,2", "mult-x:-1,1", "mult-x:0,1", "right-shift",
    "weighted-right-shift:pow:1,1", "weighted-right-shift:pow1:1,1",
    "weighted-right-shift:geom:1,0.5", "weighted-right-shift-z:pow1:1,1",
    "weighted-right-shift-z:geom:1,0.5", "mult-seq:pow:1,1", "mult-seq:pow:-1,1",
    "mult-seq:pow1:1,2", "mult-seq:geom:1,0.5", "mult-seq:const:2",
]


@pytest.mark.parametrize("opname", BAND_OPERATORS)
def test_images_of_frame_vectors_stay_in_frame_band(opname):
    """`apply` and `apply_block` map each of the first 64 frame vectors
    (Legendre degree 0 up, or sequence indices 1 up, or 0, +1, -1, ...
    on Z) into the coordinates c - ku .. c + kl of its coordinate c.
    compress reads A_N off kl + ku + 1 comb probes, so a band declared
    too narrow would merge columns."""
    op = parse_operator(opname)
    kl, ku = op.frame_band
    frame = make_basis("legendre" if op.space[0] == "func" else "canonical", op, None, 64)
    lo, at = frame.coordinates(64)
    block = op.apply_block(frame.block(64))
    assert not block.atoms
    for j in range(64):
        c = lo + at[j]
        image = op.apply(frame.element(j + 1))
        assert not image.osc
        held = image.origin + np.flatnonzero(image.values)
        assert len(held) and np.all((c - ku <= held) & (held <= c + kl)), (c, held)
        assert np.array_equal(block.index[np.flatnonzero(block.coords[j])], held)
