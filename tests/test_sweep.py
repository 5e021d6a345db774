"""A sweep's records against the element arithmetic of one record.

`evaluate_sweep` lifts each solution, applies a chunk of them as one
coordinate block and forms the residual and error rows on it; a CSV row
writes the norms and the moduli of the components.  Each of those cells
must equal, bit for bit, the one `oracles.evaluate_per_record` gets by
applying, subtracting and norming the record's own elements and taking
`inner` with each basis element.
"""

import numpy as np
import pytest

from hilbtrunc.bases import (
    adversarial_test_basis,
    canonical_basis,
    fourier_basis,
    legendre_basis,
    svd_bases,
)
from hilbtrunc.diagnostics import _CHUNK_ENTRIES, evaluate, evaluate_sweep
from hilbtrunc.elements import Func, Seq
from hilbtrunc.operators import parse_operator
from hilbtrunc.truncation import compress, solve_cg, solve_direct, solve_gmres
from oracles import evaluate_per_record

pytestmark = pytest.mark.bitwise

DATUM = [0.3, 1.0, 0.5]  # not in the range of the integration operator
SWEEP = tuple(range(1, 101)) + (200,)  # every N to 100, and a band-LU row


def cells(rec):
    """The CSV cells of a record."""
    out = [str(rec.N)]
    out += [repr(x) for x in (rec.err_norm, rec.res_norm, rec.sol_norm, rec.eps_norm)]
    for n, *pair in rec.tracked_components:
        out += [str(n)] + ["" if c is None else repr(abs(c)) for c in pair]
    return out


def assert_same_records(op, g, sols, trial, test, f_exact):
    records = evaluate_sweep(op, g, iter(sols), trial, test, f_exact=f_exact)
    want = [evaluate_per_record(op, g, sol, trial, test, f_exact=f_exact) for sol in sols]
    assert [cells(r) for r in records] == [cells(r) for r in want]


def func_problem(spec):
    op = parse_operator(spec)
    interval = op.space[1]
    return op, Func.from_poly(interval, DATUM), Func.from_poly(interval, [0.0, 1.0])


def qr_sols(op, trial, test, g, Ns, family="min-norm"):
    base = compress(op, trial, test, max(Ns), g)
    return [solve_direct(base.leading(N), family=family) for N in Ns]


def decaying(domain, origin, n):
    """A sequence of n complex entries from `origin`, none of them zero."""
    k = np.arange(1, n + 1)
    return Seq(domain, origin, 1.0 / k + 0.5j / k ** 2 - 0.25 * (-1.0) ** k / k ** 1.5)


#: sequence operators on their canonical frame: (spec, datum, exact
#: solution); every datum has a component off the range of the shift
SEQUENCE_FRAMES = {
    "right-shift": ("right-shift", decaying("nat", 1, 40), decaying("nat", 1, 30)),
    "weighted-right-shift": (
        "weighted-right-shift:pow:1,1", decaying("nat", 1, 40), decaying("nat", 1, 30)
    ),
    "weighted-right-shift-z": (
        "weighted-right-shift-z:pow1:1,1", decaying("int", -20, 40), decaying("int", -15, 30)
    ),
    "mult-seq": ("mult-seq:pow:1,1", decaying("nat", 1, 40), decaying("nat", 1, 30)),
}


class TestFramePairs:
    @pytest.mark.parametrize("spec", ["volterra", "mult-x:0.75,2", "mult-x:1,2"])
    def test_legendre(self, spec):
        op, g, f = func_problem(spec)
        leg = legendre_basis(op.space[1])
        assert_same_records(op, g, qr_sols(op, leg, leg, g, SWEEP), leg, leg, f)

    @pytest.mark.parametrize("name", sorted(SEQUENCE_FRAMES))
    def test_canonical(self, name):
        spec, g, f = SEQUENCE_FRAMES[name]
        op = parse_operator(spec)
        can = canonical_basis(op.space[1])
        assert_same_records(op, g, qr_sols(op, can, can, g, SWEEP), can, can, f)

    @pytest.mark.parametrize("spec,family", [
        ("right-shift", "kernel-unit"), ("weighted-right-shift:pow:1,1", "kernel-scaled"),
    ])
    def test_zero_datum_kernel_families(self, spec, family):
        """The two shift demos' sweeps: zero datum and solution, a kernel
        vector added to every solution."""
        op = parse_operator(spec)
        can, zero = canonical_basis("nat"), Seq.zero("nat")
        sols = qr_sols(op, can, can, zero, range(1, 101), family=family)
        assert_same_records(op, zero, sols, can, can, zero)

    def test_residual_only(self):
        op, g, _ = func_problem("volterra")
        leg = legendre_basis(op.space[1])
        assert_same_records(op, g, qr_sols(op, leg, leg, g, range(1, 41)), leg, leg, None)

    def test_sweep_runs_in_bounded_chunks(self, monkeypatch):
        """The 1..100 sweep is applied in several blocks, none holding more
        than _CHUNK_ENTRIES coefficients."""
        op, g, f = func_problem("volterra")
        leg = legendre_basis(op.space[1])
        sols = qr_sols(op, leg, leg, g, range(1, 101))
        sizes, apply_block = [], op.apply_block

        def counted(block):
            sizes.append(block.coords.size)
            return apply_block(block)

        monkeypatch.setattr(op, "apply_block", counted)
        evaluate_sweep(op, g, sols, leg, leg, f_exact=f)
        assert len(sizes) >= 2 and max(sizes) <= _CHUNK_ENTRIES


class TestKrylov:
    @pytest.mark.parametrize("spec,g", [
        ("mult-x:1,2", Func.from_poly((1.0, 2.0), [0.0, 0.0, 1.0])),
        ("volterra", Func.from_poly((0.0, 1.0), DATUM)),
        ("weighted-right-shift:pow:1,1", Seq.basis_vector(1)),
    ])
    def test_gmres(self, spec, g):
        op = parse_operator(spec)
        sols, kb = solve_gmres(op, g, 60, tol=0.0)
        f = Func.from_poly(op.space[1], [0.0, 1.0]) if op.space[0] == "func" else Seq.basis_vector(1)
        assert_same_records(op, g, sols, kb, kb, f)

    def test_cg(self):
        op, g, f = func_problem("mult-x:0.75,2")
        sols, kb = solve_cg(op, g, 40)
        assert sols[0].element is not None
        assert_same_records(op, g, sols, kb, kb, f)

    def test_krylov_trial_on_a_frame_test(self):
        op, g, f = func_problem("volterra")
        _, kb = solve_gmres(op, g, 30, tol=0.0)
        leg = legendre_basis(op.space[1])
        assert_same_records(op, g, qr_sols(op, kb, leg, g, range(1, 31)), kb, leg, f)


class TestOtherFamilies:
    @pytest.mark.parametrize("pair", [("fourier", "fourier"), ("fourier", "legendre"), ("legendre", "fourier")])
    @pytest.mark.parametrize("spec", ["volterra", "mult-x:0.75,2"])
    def test_fourier(self, spec, pair):
        op, g, f = func_problem(spec)
        families = {"fourier": fourier_basis, "legendre": legendre_basis}
        trial, test = (families[name](op.space[1]) for name in pair)
        assert_same_records(op, g, qr_sols(op, trial, test, g, range(1, 25)), trial, test, f)

    def test_adversarial(self):
        op, g, f = func_problem("volterra")
        leg = legendre_basis(op.space[1])
        adv = adversarial_test_basis(op, leg, 30)
        assert_same_records(op, g, qr_sols(op, leg, adv, g, range(1, 31)), leg, adv, f)

    def test_svd_functions(self):
        op, g, f = func_problem("volterra")
        trial, test = svd_bases(op)
        assert_same_records(op, g, qr_sols(op, trial, test, g, range(1, 25)), trial, test, f)

    def test_svd_sequences(self):
        spec, g, f = SEQUENCE_FRAMES["weighted-right-shift"]
        op = parse_operator(spec)
        trial, test = svd_bases(op)
        assert_same_records(op, g, qr_sols(op, trial, test, g, range(1, 41)), trial, test, f)


def test_evaluate_is_the_one_record_sweep():
    op, g, f = func_problem("volterra")
    leg = legendre_basis(op.space[1])
    (sol,) = qr_sols(op, leg, leg, g, (10,))
    assert evaluate(op, g, sol, leg, leg, f_exact=f) == evaluate_sweep(op, g, [sol], leg, leg, f_exact=f)[0]
