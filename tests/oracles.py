"""Reference computations the tests compare the library against.

None of them runs on a program path: each recomputes a quantity the
library forms another way (point values instead of coefficient
arithmetic, the explicit kernel of a Volterra power instead of repeated
application, the closed forms of the noise model instead of the
pipeline, one Givens QR per Hessenberg matrix instead of per step, the
element arithmetic of one record instead of a sweep's blocks).
"""

import math

import numpy as np

from hilbtrunc.bases import svd_bases
from hilbtrunc.diagnostics import DEFAULT_TRACKED, ConvergenceRecord, NoiseModel, evaluate
from hilbtrunc.elements import Func, inner, lincomb
from hilbtrunc.operators import BoundedOperator, MultiplicationX, Volterra
from hilbtrunc.truncation import _GivensQR, compress, lift, solve_direct


def legendre_values(interval, max_degree: int, x) -> np.ndarray:
    """Values of the orthonormal shifted Legendre family on `interval`.

    Row n of the returned (max_degree+1, len(x)) array is the degree-n
    polynomial, evaluated by the stable three-term recurrence.
    """
    a, b = interval
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = (2.0 * x - a - b) / (b - a)
    out = np.empty((max_degree + 1, t.size))
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = t
    for n in range(1, max_degree):
        out[n + 1] = ((2 * n + 1) * t * out[n] - n * out[n - 1]) / (n + 1)
    scale = np.sqrt((2.0 * np.arange(max_degree + 1) + 1.0) / (b - a))
    return out * scale[:, None]


def eval_at(f: Func, x) -> np.ndarray:
    """Pointwise values of a function element (vectorized over x)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(x.shape, dtype=complex)
    if len(f.values):
        out += f.values @ legendre_values(f.interval, len(f.values) - 1, x)
    for (m, w), c in f.osc.items():
        out += c * x ** m * np.exp(1j * w * x)
    return out


def volterra_power_apply(n: int, f: Func) -> Func:
    """n-th power of the integration operator via its explicit kernel.

    Expands the kernel (x-y)^{n-1}/(n-1)! binomially, so each term is a
    monomial multiplication, one integration, and another monomial
    multiplication; this path is independent of iterating apply().
    """
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    op = Volterra()
    op._check(f)
    mult = MultiplicationX((0.0, 1.0))
    acc = Func.zero(f.interval)
    # y^k f, integrated, then times x^{n-1-k}
    yk = f
    for k in range(0, n):
        term = op.apply(yk)
        for _ in range(n - 1 - k):
            term = mult.apply(term)
        coeff = ((-1.0) ** k) * math.comb(n - 1, k) / math.factorial(n - 1)
        acc = acc + coeff * term
        if k < n - 1:
            yk = mult.apply(yk)
    return acc


def givens_residuals(H: np.ndarray, beta: float) -> np.ndarray:
    """min ||H[:n+1, :n] y - beta e_1|| for n = 1..m, H of shape (m+1, m),
    from one progressive Givens QR."""
    m = H.shape[1]
    rotations = _GivensQR(beta, m)
    return np.array([rotations.push(H) for _ in range(m)], dtype=float)


def noisy_pipeline_check(
    op: BoundedOperator,
    model: NoiseModel,
    N_max: int,
    tail_window: int = 120,
) -> float:
    """Run compress/solve/evaluate in the singular frame against closed forms.

    The datum g + nu is synthesized on a window of N_max + tail_window
    singular modes; the compression is then diag(sigma) and the
    truncated problems are solved exactly, so the pipeline's res/err
    norms must reproduce the (window-consistent) partial sums.  Returns
    the maximum absolute discrepancy of the squared norms over N <= N_max.
    """
    triple = op.exact_svd()
    trial, test = svd_bases(op)
    W = N_max + tail_window
    idx = np.arange(1, W + 1)
    g_n = np.asarray(model.g_law(idx), dtype=float)
    nu_n = np.asarray(model.nu_law(idx), dtype=float)
    sigma_n = np.asarray(model.sigma_law(idx), dtype=float)
    g_el = lincomb(g_n, [triple.left(int(k)) for k in idx])
    nu_el = lincomb(nu_n, [triple.left(int(k)) for k in idx])
    f_el = lincomb(g_n / sigma_n, [triple.right(int(k)) for k in idx])
    datum = g_el + nu_el

    base = compress(op, trial, test, N_max, datum)
    worst = 0.0
    for N in range(1, N_max + 1):
        sol = solve_direct(base.leading(N))
        rec = evaluate(op, g_el, sol, trial, test, f_exact=f_el, tracked=())
        res_expect = float(np.sum(nu_n[:N] ** 2) + np.sum(g_n[N:] ** 2))
        err_expect = float(
            np.sum((nu_n[:N] / sigma_n[:N]) ** 2)
            + np.sum((g_n[N:] / sigma_n[N:]) ** 2)
        )
        worst = max(worst, abs(rec.res_norm ** 2 - res_expect))
        worst = max(worst, abs(rec.err_norm ** 2 - err_expect))
    return worst


def evaluate_per_record(op, g, sol, trial, test, f_exact=None, tracked=DEFAULT_TRACKED):
    """`diagnostics.evaluate` by element arithmetic on one record: the
    lifted solution applied, subtracted and normed as an element, and
    each component an `inner` with the basis element."""
    fhat = lift(sol, trial)
    res_el = g - op.apply(fhat)
    res_norm = res_el.norm()
    if sol.element is not None:
        sol_norm = fhat.norm()
    else:
        sol_norm = float(np.linalg.norm(sol.f_N_coeffs))
    err_el = None
    err_norm = None
    if f_exact is not None:
        err_el = f_exact - fhat
        err_norm = err_el.norm()
    comps = []
    for n in tracked:
        err_c = None
        if err_el is not None and trial.has(n):
            err_c = inner(trial.element(n), err_el)
        res_c = None
        if test.has(n):
            res_c = inner(test.element(n), res_el)
        comps.append((n, err_c, res_c))
    return ConvergenceRecord(
        N=len(sol.f_N_coeffs) if len(sol.f_N_coeffs) else sol.iterations,
        err_norm=err_norm,
        res_norm=res_norm,
        sol_norm=sol_norm,
        eps_norm=sol.eps_norm,
        tracked_components=tuple(comps),
    )
