"""The README's concurrency claim: operators are immutable and the
module memos hand out read-only results, so threads that each own
their bases may compress on one shared operator at once."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hilbtrunc.cli import make_basis, parse_element
from hilbtrunc.elements import _moment_block, _moment_map, iosc
from hilbtrunc.operators import parse_operator
from hilbtrunc.truncation import compress

THREADS = 4

# (operator, datum, trial, test, N): the oscillatory moments and iosc on
# Fourier/Legendre pairs, and the sequence frame under the shifts
CASES = [
    ("volterra", "poly:0.3,1,0.5", "fourier", "legendre", 200),
    ("volterra", "poly:0.3,1,0.5", "legendre", "fourier", 200),
    ("right-shift", "basis-e:2", "canonical", "canonical", 200),
    ("weighted-right-shift:pow:1,1", "basis-e:1", "canonical", "canonical", 200),
    ("weighted-right-shift-z:pow1:1,1", "basis-e:1", "canonical", "canonical", 200),
]


def _clear_memos():
    for memo in (iosc, _moment_block, _moment_map):
        memo.cache_clear()


def _compressions(ops, order):
    """(A_N, g_N) of every case, listed by case, built in `order` with
    bases of this call's own."""
    out = [None] * len(CASES)
    for i in order:
        _, datum, trial_name, test_name, N = CASES[i]
        op = ops[i]
        g = parse_element(datum, op)
        trial = make_basis(trial_name, op, g, N)
        test = make_basis(test_name, op, g, N, trial=trial)
        problem = compress(op, trial, test, N, g)
        out[i] = (problem.A_N, problem.g_N)
    return out


@pytest.mark.bitwise
def test_threads_sharing_operators_and_memos_compress_bit_for_bit():
    ops = [parse_operator(case[0]) for case in CASES]
    _clear_memos()
    want = _compressions(ops, range(len(CASES)))
    _clear_memos()
    # each thread starts at another case, so the memos fill from several
    # threads at once
    orders = [np.roll(np.arange(len(CASES)), -k).tolist() for k in range(THREADS)]
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        results = list(pool.map(lambda order: _compressions(ops, order), orders))
    for got in results:
        for (A, g), (A_ref, g_ref), case in zip(got, want, CASES):
            assert np.array_equal(A, A_ref), case
            assert np.array_equal(g, g_ref), case
