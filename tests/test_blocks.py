"""Coordinate blocks: compression, lifting and the adversarial frame as
products on stacked coefficients, checked against the entrywise loops
they replace."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from hilbtrunc.bases import (
    OrthonormalBasis,
    adversarial_test_basis,
    canonical_basis,
    fourier_basis,
    legendre_basis,
    svd_bases,
)
from hilbtrunc.cli import main, make_basis
from hilbtrunc.core import CapabilityError, SpaceMismatchError
from hilbtrunc.elements import (
    Func,
    Seq,
    _atom_gram,
    _moments,
    inner,
    inner_matrix,
    integrate_leg01,
    lincomb,
    map_by_index,
    mult_x_leg,
    stack,
)
from hilbtrunc.operators import MultiplicationX, Volterra, parse_operator
from hilbtrunc.truncation import compress, lift, solve_direct

FUNC_OPERATORS = ("volterra", "mult-x:1,2", "mult-x:-1,1")
SEQ_OPERATORS = (
    "right-shift",
    "weighted-right-shift:pow:1,1",
    "weighted-right-shift:pow1:1,1",
    "weighted-right-shift-z:pow1:1,1",
    "mult-seq:pow:1,1",
    "mult-seq:pow:-1,1",
)
FUNC_PAIRS = [
    (t, s) for t in ("legendre", "fourier", "krylov")
    for s in ("legendre", "fourier", "krylov", "adversarial")
]
SEQ_PAIRS = [
    (t, s) for t in ("canonical", "krylov") for s in ("canonical", "krylov", "adversarial")
]
CASES = (
    [(op, t, s) for op in FUNC_OPERATORS for t, s in FUNC_PAIRS]
    + [(op, t, s) for op in SEQ_OPERATORS for t, s in SEQ_PAIRS]
    + [("volterra", "svd", "svd"), ("weighted-right-shift:pow:1,1", "svd", "svd")]
)
EXACT_PAIRS = {("legendre", "legendre"), ("canonical", "canonical")}


def datum_for(op, oscillatory=True):
    """A polynomial datum, as the CLI builds, plus oscillatory terms that
    put atoms in the datum's column; or a short sequence."""
    if op.space[0] == "func":
        interval = op.space[1]
        g = Func.from_poly(interval, [0.3, -1.0, 0.5])
        if oscillatory:
            g = g + Func.from_osc(interval, {(0, 3.0): 0.5 - 0.25j, (1, -7.5): 0.125})
        return g
    origin = 1 if op.space[1] == "nat" else -2
    return Seq(op.space[1], origin, np.array([1.0, 0.5j, -0.25, 0.0, 0.125]))


def bases_for(op, datum, trial, test, N):
    """The CLI's basis resolution for a qr run with n_max = N."""
    if trial == "svd":
        return svd_bases(op)
    tb = make_basis(trial, op, datum, N)
    return tb, tb if test == trial else make_basis(test, op, datum, N, trial=tb)


def entrywise(op, trial, test, N, g):
    """The per-entry loop compress used to run: the reference."""
    images = [op.apply(u) for u in trial.elements(N)]
    tests = test.elements(N)
    A = np.array([[inner(v, au) for au in images] for v in tests])
    return A, np.array([inner(v, g) for v in tests])


def reference_compress(op, trial, test, N, g):
    """The compression as it was built before operators mapped blocks:
    one `apply` per trial element, and one product of the stacked test
    elements against the stacked images and g.  Returns (A_N, g_N)."""
    applied = [op.apply(trial.element(j)) for j in range(1, N + 1)]
    V, U = stack(test.elements(N), applied + [g])
    sparse = scipy.sparse.csr_array
    GU = U.coords
    if V.space[0] == "func":
        interval, degrees = V.space[1], GU.shape[1]
        if U.atoms:
            GU = GU + sparse(U.osc) @ _moments(interval, U.atoms, degrees).T
    block = sparse(V.coords.conj()) @ GU.T
    if V.atoms:
        moments = _moments(interval, V.atoms, degrees)
        gram = _atom_gram(interval, V.atoms, U.atoms)
        block += sparse(V.osc.conj()) @ (sparse(U.coords) @ moments.conj() + sparse(U.osc) @ gram.T).T
    return block[:, :N], block[:, N]


def bitwise_equal(a, b):
    """Equal arrays down to the sign of every zero."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


ATOM_TRIALS = ("fourier", "svd")  # trial elements holding atoms x^m e^{iwx}

#: Every operator kind on its frame: a zero diagonal (mult-x centred at
#: 0), negative weights (mult-seq) and the Z domain included.
FRAME_OPERATORS = (
    "volterra",
    "mult-x:0.6875,2",
    "mult-x:-1,1",
    "right-shift",
    "weighted-right-shift:pow:1,1",
    "weighted-right-shift:pow1:1,1",
    "weighted-right-shift-z:pow1:1,1",
    "mult-seq:pow:1,1",
    "mult-seq:pow:-1,1",
)


@pytest.mark.bitwise
class TestCompressMatchesReference:
    """One block application and the shared product give the reference's
    bits; the bits do not depend on the BLAS thread count."""

    @pytest.mark.parametrize("N", [1, 7, 40])
    @pytest.mark.parametrize("operator,trial,test", CASES)
    def test_every_case(self, operator, trial, test, N):
        op = parse_operator(operator)
        g = datum_for(op, oscillatory="krylov" not in (trial, test))
        trial_b, test_b = bases_for(op, g, trial, test, N)
        n = min(N, trial_b.size or N, test_b.size or N)
        p = compress(op, trial_b, test_b, n, g)
        A, gvec = reference_compress(op, trial_b, test_b, n, g)
        if trial in ATOM_TRIALS:
            assert np.max(np.abs(p.A_N - A)) <= 1e-12 * max(np.max(np.abs(A)), 1e-300)
            assert np.max(np.abs(p.g_N - gvec)) <= 1e-12 * np.max(np.abs(gvec))
        else:
            assert bitwise_equal(p.A_N, A) and bitwise_equal(p.g_N, gvec)

    @pytest.mark.parametrize("N", [1, 2, 3, 129, 640])
    @pytest.mark.parametrize("operator", FRAME_OPERATORS)
    def test_frame_pair(self, operator, N):
        """The comb probes give A_N the bits of the frame's identity block
        mapped whole, and of the reference; g_N has the bits of its own
        product and of the reference; the problem carries A_N's band."""
        op = parse_operator(operator)
        g = datum_for(op)
        b = make_basis("legendre" if op.space[0] == "func" else "canonical", op, g, N)
        p = compress(op, b, b, N, g)
        tests = b.block(N, sparse=True)
        A = inner_matrix(tests, op.apply_block(b.block(N)))
        assert p.A_N.tobytes() == A.tobytes()
        assert p.g_N.tobytes() == inner_matrix(tests, [g])[:, 0].tobytes()
        A_ref, g_ref = reference_compress(op, b, b, N, g)
        assert bitwise_equal(p.A_N, A_ref) and bitwise_equal(p.g_N, g_ref)
        rows, cols = np.nonzero(A)
        assert p.band[0] >= max(rows - cols, default=0) and p.band[1] >= max(cols - rows, default=0)


@pytest.mark.parametrize(
    "kernel",
    [
        integrate_leg01,
        lambda c: mult_x_leg((-0.5, 1.25), c),
        lambda c: map_by_index(c, np.arange(3, 3 + len(c)), lambda n: (n + 1.0) ** -1.5),
    ],
    ids=["integrate_leg01", "mult_x_leg", "map_by_index"],
)
@pytest.mark.parametrize("n", [0, 1, 2, 9])
def test_block_kernels_act_column_by_column(kernel, n):
    """A 2-D block, one column per element, gives each column the bits of
    the 1-D call, signed zeros included."""
    rng = np.random.default_rng(n)
    block = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
    block[:, 1] = 0.0
    block[:, 2] = -0.0 + 0.5j
    out = kernel(block)
    for j in range(5):
        assert bitwise_equal(out[:, j], kernel(block[:, j].copy()))


@pytest.mark.bitwise
@pytest.mark.parametrize("seed", range(20))
def test_volterra_apply_sums_atoms_as_apply_block(seed):
    """Four atoms of one frequency listed in reverse (m, w) order: the
    per-element image has the bits of its block row, which sums the
    atoms in sorted order."""
    rng = np.random.default_rng(seed)
    w = float(rng.uniform(-20.0, 20.0))
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    leg = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f = Func((0.0, 1.0), leg, {(m, w): c[m] for m in (3, 2, 1, 0)})
    op = Volterra()
    image, row = op.apply(f), op.apply_block(stack([f])[0])
    assert bitwise_equal(image.leg, row.coords[0])
    assert sorted(image.osc) == list(row.atoms)
    assert bitwise_equal(np.array([image.osc[key] for key in row.atoms]), row.osc[0])


FRAME_PAIRS = [
    ("volterra", lambda op: legendre_basis(op.space[1])),
    ("mult-x:0.6875,2", lambda op: legendre_basis(op.space[1])),
    ("weighted-right-shift:pow:1,1", lambda op: canonical_basis("nat")),
    ("right-shift", lambda op: canonical_basis("nat")),
    ("weighted-right-shift-z:pow1:1,1", lambda op: canonical_basis("int")),
]


@pytest.mark.parametrize("operator,frame", FRAME_PAIRS, ids=[p[0] for p in FRAME_PAIRS])
def test_frame_pair_builds_no_element_and_applies_no_element(operator, frame, monkeypatch):
    """A coordinate frame hands over its block: compress generates no
    basis element and makes no per-element `apply` call, and neither
    does the adversarial family built against that frame."""
    op = parse_operator(operator)
    calls = []

    def counted(method):
        def call(self, arg):
            calls.append(method.__name__)
            return method(self, arg)

        return call

    monkeypatch.setattr(OrthonormalBasis, "element", counted(OrthonormalBasis.element))
    monkeypatch.setattr(type(op), "apply", counted(type(op).apply))
    g = datum_for(op, oscillatory=False)
    basis = frame(op)
    p = compress(op, basis, basis, 50, g)
    adversarial_test_basis(op, basis, 8)
    assert p.A_N.shape == (50, 50) and calls == []


@pytest.mark.parametrize("operator,frame", FRAME_PAIRS, ids=[p[0] for p in FRAME_PAIRS])
def test_frame_pair_peak_memory(operator, frame):
    """The traced peak of compress at N = 640 stays within 1.25 N^2
    complex entries: the returned A_N and O(N) probes, with no dense
    trial block, image or test block."""
    op = parse_operator(operator)
    g = datum_for(op, oscillatory=False)
    basis = frame(op)
    tracemalloc.start()
    try:
        compress(op, basis, basis, 640, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 640**2 * 16


@pytest.mark.parametrize("N", [1, 7, 40])
@pytest.mark.parametrize("operator,trial,test", CASES)
def test_compress_matches_entrywise_inner(operator, trial, test, N):
    """Every operator kind and basis pair the CLI accepts.  Krylov vectors
    of an oscillatory datum would carry atoms x^m e^{iwx} of growing m
    whose coefficients cancel, so Krylov bases refuse such data and get
    the CLI's polynomial datum only.  An adversarial
    A_N vanishes by design: its roundoff is measured against the images'
    norms, which bound every entry."""
    op = parse_operator(operator)
    g = datum_for(op, oscillatory="krylov" not in (trial, test))
    trial_b, test_b = bases_for(op, g, trial, test, N)
    n = min(N, trial_b.size or N, test_b.size or N)
    p = compress(op, trial_b, test_b, n, g)
    A, gvec = entrywise(op, trial_b, test_b, n, g)
    if (trial, test) in EXACT_PAIRS:
        assert np.array_equal(p.A_N, A)
    scale = np.max(np.abs(A))
    if test == "adversarial":
        scale = max(op.apply(u).norm() for u in trial_b.elements(n))
    assert np.max(np.abs(p.A_N - A)) <= 1e-12 * scale
    assert np.max(np.abs(p.g_N - gvec)) <= 1e-12 * np.max(np.abs(gvec))


@pytest.mark.parametrize("operator", ["volterra", "mult-x:1,2", "right-shift"])
def test_exact_pairs_with_a_cli_datum_are_bitwise(operator):
    """With no atoms in the datum the product reproduces g_N bit for bit too."""
    op = parse_operator(operator)
    g = datum_for(op, oscillatory=False)
    name = "legendre" if op.space[0] == "func" else "canonical"
    basis = make_basis(name, op, g, 40)
    p = compress(op, basis, basis, 40, g)
    A, gvec = entrywise(op, basis, basis, 40, g)
    assert np.array_equal(p.A_N, A) and np.array_equal(p.g_N, gvec)


@pytest.fixture
def inner_calls(monkeypatch):
    calls = []
    for cls in (Func, Seq):
        original = cls.inner

        def counted(self, other, original=original):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(cls, "inner", counted)
    return calls


def test_fourier_legendre_compress_calls_no_inner(inner_calls):
    op = MultiplicationX((0.75, 2.0))
    interval = op.space[1]
    p = compress(op, fourier_basis(interval), legendre_basis(interval), 64, datum_for(op))
    assert p.N == 64 and len(inner_calls) == 0


def test_adversarial_frame_coordinates_call_no_inner(inner_calls):
    op = Volterra()
    adversarial_test_basis(op, legendre_basis(op.space[1]), 10)
    assert len(inner_calls) == 0


class TestBlockPathKeepsFailures:
    def test_sequence_datum_with_function_operator(self):
        op = Volterra()
        leg = legendre_basis(op.space[1])
        with pytest.raises(SpaceMismatchError):
            compress(op, leg, leg, 4, Seq.basis_vector(1))

    def test_function_on_another_interval(self):
        with pytest.raises(SpaceMismatchError):
            stack([Func.from_leg((0.0, 1.0), [1.0]), Func.from_leg((0.0, 2.0), [1.0])])

    def test_sequences_over_different_domains(self):
        with pytest.raises(SpaceMismatchError):
            stack([Seq.basis_vector(1, "nat")], [Seq.basis_vector(1, "int")])

    def test_sequence_tests_against_functions(self):
        with pytest.raises(SpaceMismatchError, match="cannot pair"):
            inner_matrix([Seq.basis_vector(1)], [Func.from_leg((0.0, 1.0), [1.0])])

    def test_space_mismatch_exits_three(self, tmp_path, monkeypatch, capsys):
        """A datum that reaches compress from another space exits 3."""
        import hilbtrunc.cli as cli

        monkeypatch.setattr(cli, "parse_element", lambda text, op: Seq.basis_vector(1))
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\noperator = volterra\ndatum = poly:1\n"
            "[truncation]\ntrial = legendre\ntest = legendre\nn_list = 2\n"
            "[output]\ncsv = out.csv\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 3
        assert "cannot pair" in capsys.readouterr().err

    def test_basis_on_another_interval(self):
        op = Volterra()
        with pytest.raises(CapabilityError):
            compress(op, legendre_basis((0.0, 2.0)), legendre_basis((0.0, 1.0)), 3,
                     Func.zero(op.space[1]))

    @pytest.mark.parametrize("pair", [("fourier", "legendre"), ("legendre", "fourier")])
    def test_entries_read_only(self, pair):
        op = MultiplicationX((1.0, 2.0))
        make = {"legendre": legendre_basis, "fourier": fourier_basis}
        trial, test = (make[name](op.space[1]) for name in pair)
        p = compress(op, trial, test, 6, datum_for(op))
        for q in (p, p.leading(3)):
            with pytest.raises(ValueError):
                q.A_N[0, 0] = 2.0
            with pytest.raises(ValueError):
                q.g_N[0] = 2.0


def sequential_lincomb(coeffs, elems):
    """The element-by-element sum lincomb used to run: the reference."""
    acc = coeffs[0] * elems[0]
    for c, e in zip(coeffs[1:], elems[1:]):
        acc = acc + c * e
    return acc


class TestLincombBlock:
    def test_legendre_sum_is_bitwise_sequential(self):
        rng = np.random.default_rng(3)
        elems = [
            Func.from_leg((1.0, 2.0), rng.standard_normal(k) + 1j * rng.standard_normal(k))
            for k in rng.integers(1, 60, size=25)
        ]
        for coeffs in (rng.standard_normal(25), rng.standard_normal(25) + 1j * rng.standard_normal(25)):
            got, ref = lincomb(coeffs, elems), sequential_lincomb(coeffs, elems)
            assert np.array_equal(got.leg, ref.leg) and got.osc == ref.osc == {}

    def test_sequence_sum_is_bitwise_sequential(self):
        rng = np.random.default_rng(4)
        elems = [
            Seq("int", int(o), rng.standard_normal(int(k)) + 1j)
            for o, k in zip(rng.integers(-9, 9, size=12), rng.integers(1, 8, size=12))
        ]
        coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        got, ref = lincomb(coeffs, elems), sequential_lincomb(coeffs, elems)
        assert got.origin == ref.origin and np.array_equal(got.values, ref.values)

    def test_single_column_sum_is_bitwise_sequential(self):
        """Rows that all store one index: numpy reduces a lone column
        pairwise, which is not the order of the sequential sum."""
        values = 10.0 ** np.arange(-8, 8)
        elems = [Seq("nat", 5, [v]) for v in values] + [Seq("nat", 5, [-v]) for v in values]
        coeffs = np.random.default_rng(5).standard_normal(len(elems))
        got, ref = lincomb(coeffs, elems), sequential_lincomb(coeffs, elems)
        assert got.origin == ref.origin == 5 and np.array_equal(got.values, ref.values)

    def test_far_apart_sequences(self):
        elems = [Seq.basis_vector(2), Seq("nat", 10**6, [1.0, 2.0])]
        got, ref = lincomb([1.0, -1.0], elems), sequential_lincomb([1.0, -1.0], elems)
        assert got.origin == ref.origin == 2 and np.array_equal(got.values, ref.values)

    def test_oscillatory_terms_and_flags(self):
        interval = (0.0, 1.0)
        elems = [
            Func.from_osc(interval, {(0, 2.0): 1.0, (1, -3.0): 0.5j}),
            Func.from_poly(interval, [1.0, 2.0]),
            Func.from_leg(interval, [0.25, -1.0, 0.0, 3.0 - 0.5j]),
            Func.from_osc(interval, {(0, 2.0): -0.25}),
        ]
        coeffs = np.array([0.5, -1.0 + 1j, 2.0, 4.0])
        got, ref = lincomb(coeffs, elems), sequential_lincomb(coeffs, elems)
        assert np.array_equal(got.leg, ref.leg)
        assert set(got.osc) == set(ref.osc)
        for key, c in ref.osc.items():
            assert abs(got.osc[key] - c) <= 1e-15 * abs(c)

    def test_least_squares_lift_matches_sequential_sum(self):
        """lift of a least-squares solution is the sequential sum, bit for bit."""
        op = MultiplicationX((1.0, 2.0))
        leg = legendre_basis(op.space[1])
        p = compress(op, leg, leg, 30, Func.from_poly(op.space[1], [0, 0, 1]))
        sol = solve_direct(p)
        ref = sequential_lincomb(sol.f_N_coeffs, leg.elements(30))
        assert np.array_equal(lift(sol, leg).leg, ref.leg)


def test_gram_entries_do_not_depend_on_the_block():
    """Atoms are sorted, so an entry sums in the same order whatever else
    the block holds: nested compressions are bitwise leading blocks."""
    op = MultiplicationX((0.5, 1.5))
    trial, test = fourier_basis(op.space[1]), fourier_basis(op.space[1])
    g = datum_for(op)
    big = compress(op, trial, test, 21, g)
    for N in (2, 9, 20):
        small = compress(op, trial, test, N, g)
        assert np.array_equal(big.leading(N).A_N, small.A_N)
        assert np.array_equal(big.leading(N).g_N, small.g_N)


def test_block_columns():
    interval = (0.0, 1.0)
    left, right = stack(
        [Func.from_osc(interval, {(1, 2.0): 1.0, (0, 5.0): 2.0})],
        [Func.from_leg(interval, [0.0, 3.0]), Func.from_osc(interval, {(0, -1.0): 4.0})],
    )
    assert left.atoms == ((0, 5.0), (1, 2.0)) and right.atoms == ((0, -1.0),)
    np.testing.assert_array_equal(left.coords, [[0, 0]])
    np.testing.assert_array_equal(left.osc, [[2, 1]])
    np.testing.assert_array_equal(right.coords, [[0, 3], [0, 0]])
    np.testing.assert_array_equal(right.osc, [[0], [4]])
    (seqs,) = stack([Seq("int", -2, [1.0, 0.0]), Seq.zero("int"), Seq("int", 1, [5.0])])
    np.testing.assert_array_equal(seqs.index, [-2, -1, 1])
    np.testing.assert_array_equal(seqs.coords, [[1, 0, 0], [0, 0, 0], [0, 0, 5]])


def test_far_sequence_datum_adds_no_gap_columns(tmp_path):
    """A canonical basis against a datum at index 10^8: the blocks hold the
    stored indices only, not a dense window across the gap."""
    far = 10**8
    basis = make_basis("canonical", parse_operator("right-shift"), None, 10)
    tests, data = stack(basis.elements(10), [Seq.basis_vector(far)])
    assert tests.coords.shape == (10, 11) and tests.index[-1] == far
    for operator in ("right-shift", "mult-seq:pow:1,1"):
        op = parse_operator(operator)
        datum = Seq.basis_vector(far)
        p = compress(op, basis, basis, 10, datum)
        A, gvec = entrywise(op, basis, basis, 10, datum)
        assert np.array_equal(p.A_N, A) and np.array_equal(p.g_N, gvec)
    cfg = tmp_path / "far.ini"
    cfg.write_text(
        f"[problem]\noperator = right-shift\ndatum = basis-e:{far}\n"
        "[truncation]\ntrial = canonical\ntest = canonical\nn_list = 10\n"
        "[output]\ncsv = out.csv\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
