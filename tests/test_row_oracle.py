"""The norms of each CSV row against point values of its lifted solution.

A `hilbtrunc run` row reports `res_norm`, `err_norm` and `sol_norm` of
the lifted solution f^(N).  Here each is recomputed from values of
f^(N) at points, with none of the library's `inner`, `apply` or `norm`:
the L2 norms from numpy's 400-point Gauss-Legendre rule, the integration
operator as a Gauss-Legendre rule on each [0, x_j], and `mult-x` as
x f(x).  The lifted solutions are those the run itself evaluates.
"""

import functools
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hilbtrunc import diagnostics
from hilbtrunc.cli import main
from oracles import eval_at

#: function-space operators and their intervals
INTERVALS = {"volterra": (0.0, 1.0), "mult-x:0.75,2": (0.75, 2.0)}
DATUM = "poly:0.3,1,0.5"  # g(0) != 0: not in the range of the integration operator
N_LIST = (10, 20, 40, 60)
FAMILIES = ("legendre", "fourier", "krylov")

#: (operator, trial, test, solver) -> the N of the rows it writes
SWEEPS = {
    **{
        (op, trial, test, "qr"): N_LIST
        for op in INTERVALS for trial in FAMILIES for test in FAMILIES
    },
    **{(op, "legendre", "adversarial", "qr"): N_LIST for op in INTERVALS},
    ("volterra", "svd", "svd", "qr"): N_LIST,
    ("volterra", "krylov", "krylov", "gmres"): N_LIST,
    # both stop before N = 60
    ("mult-x:0.75,2", "krylov", "krylov", "gmres"): (10, 17),
    ("mult-x:0.75,2", "krylov", "krylov", "cg"): (10, 20, 25),
}

#: Rows whose `sol_norm` is the coordinate norm ||f_N_coeffs|| on a
#: Krylov trial that has lost orthogonality (ROADMAP item 8): it is not
#: the norm of the lifted solution.
COORDINATE_NORM_ROWS = {
    (("mult-x:0.75,2", "krylov", test, "qr"), N) for test in FAMILIES for N in (40, 60)
}

_X, _W = np.polynomial.legendre.leggauss(400)
_T, _WT = np.polynomial.legendre.leggauss(96)  # on each [0, x_j]


def _point_norms(operator, f):
    """(res_norm, err_norm, sol_norm) of f from its values at points."""
    a, b = INTERVALS[operator]
    x, w = 0.5 * (b - a) * _X + 0.5 * (a + b), 0.5 * (b - a) * _W
    fx = eval_at(f, x)
    if operator == "volterra":  # int_0^x f, in chunks of 50 nodes x_j
        t, wt = 0.5 * (_T + 1.0), 0.5 * _WT
        Af = x * np.concatenate(
            [eval_at(f, np.outer(xs, t).ravel()).reshape(len(xs), -1) @ wt for xs in np.split(x, 8)]
        )
    else:
        Af = x * fx
    g = 0.3 + x + 0.5 * x * x

    def norm(v):
        return math.sqrt(float(np.sum(w * np.abs(v) ** 2)))

    return norm(g - Af), norm(x - fx), norm(fx)


@functools.lru_cache(maxsize=None)
def _rows(operator, trial, test, solver):
    """{N: (CSV row, point-value norms)} of one `hilbtrunc run` sweep."""
    lifted = []
    lift = diagnostics.lift

    def kept(sol, basis):
        lifted.append(lift(sol, basis))
        return lifted[-1]

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(diagnostics, "lift", kept):
        cfg, out = Path(tmp) / "c.ini", Path(tmp) / "o.csv"
        cfg.write_text(
            f"[problem]\noperator = {operator}\ndatum = {DATUM}\nexact_solution = poly:0,1\n"
            f"[truncation]\ntrial = {trial}\ntest = {test}\nsolver = {solver}\n"
            f"n_list = {','.join(map(str, N_LIST))}\n[output]\ncsv = {out}\n"
        )
        assert main(["run", str(cfg)]) == 0
        header, *lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == len(lifted)
    return {int(row["N"]): (row, _point_norms(operator, f)) for row, f in zip(rows, lifted)}


def _row_params(marked=frozenset()):
    xfail = pytest.mark.xfail(strict=True, reason="sol_norm is the coordinate norm")
    return [
        pytest.param(sweep, N, id=f"{'-'.join(sweep)}-N{N}", marks=[xfail] * ((sweep, N) in marked))
        for sweep, ns in SWEEPS.items()
        for N in ns
    ]


@pytest.mark.parametrize("sweep,N", _row_params())
def test_residual_and_error_norms_from_point_values(sweep, N):
    rows = _rows(*sweep)
    assert tuple(rows) == SWEEPS[sweep]
    row, (res, err, sol) = rows[N]
    bound = 1e-10 * max(1.0, sol)
    assert abs(float(row["res_norm"]) - res) <= bound
    assert abs(float(row["err_norm"]) - err) <= bound


@pytest.mark.parametrize("sweep,N", _row_params(COORDINATE_NORM_ROWS))
def test_solution_norm_from_point_values(sweep, N):
    row, (_, _, sol) = _rows(*sweep)[N]
    assert abs(float(row["sol_norm"]) - sol) <= 1e-10 * max(1.0, sol)
