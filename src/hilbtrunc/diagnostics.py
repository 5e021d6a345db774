"""Infinite-dimensional error/residual records, convergence classification,
and the spectral noise model with its exact summation formulas.

The classifier operationalizes the strong / weak / component-wise
hierarchy from finite data; its output is advisory and labeled as such.
Noise series are evaluated with closed-form tails (Hurwitz zeta for
power laws, geometric sums) or adaptive summation with an
integral-comparison remainder bound, never silent truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.special

from .bases import OrthonormalBasis, svd_bases
from .core import gauss_legendre
from .elements import inner, lincomb
from .operators import (
    BoundedOperator,
    SequenceLaw,
    geometric_law,
    power_law,
    shifted_power_law,
)
from .truncation import ApproxSolution, compress, lift, solve_direct

#: Norm level below which a series counts as strongly vanished.
TOL_STRONG = 1e-6
#: Log-log slope above which a norm series counts as diverging.
DIVERGENCE_SLOPE = 0.1
#: Component level below which tracked components count as vanished.
COMPONENT_TOL = 1e-6
#: Default component indices to track.
DEFAULT_TRACKED = (1, 2, 3, 5, 10)


@dataclass(frozen=True)
class ConvergenceRecord:
    """Per-N snapshot of the displacement indicators.

    `tracked_components` holds (index, error component, residual
    component) triples; error entries are None without an exact
    solution.
    """

    N: int
    err_norm: Optional[float]
    res_norm: float
    sol_norm: float
    eps_norm: float
    tracked_components: tuple


def evaluate(
    op: BoundedOperator,
    g,
    sol: ApproxSolution,
    trial: OrthonormalBasis,
    test: OrthonormalBasis,
    f_exact=None,
    tracked: Sequence[int] = DEFAULT_TRACKED,
) -> ConvergenceRecord:
    """Error f - fhat and residual g - A fhat of a lifted solution.

    Without `f_exact` a residual-only record is returned (error fields
    None).  Component traces use the declared trial/test bases and skip
    indices beyond a finite family; a Krylov family runs its recursion
    to an index to find out whether it has one.
    """
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


@dataclass(frozen=True)
class Classification:
    """Advisory verdict on how an indicator series vanishes."""

    label: str  # strong | weak-not-strong | componentwise-not-weak | none
    evidence: dict

    def __str__(self):
        return f"{self.label} (advisory; {self.evidence})"


def classify(series: Sequence[ConvergenceRecord], which: str) -> Classification:
    """Heuristic convergence mode of the error or residual series.

    strong: the norm trend is non-diverging and ends at or below
    TOL_STRONG.  weak-not-strong: tracked components vanish while the
    norm stays bounded but above the strong level.
    componentwise-not-weak: components vanish while the norms diverge
    (positive log-log slope).  The verdict is advisory: weak convergence
    is not decidable from finitely many components.
    """
    if which not in ("error", "residual"):
        raise ValueError(f"which must be 'error' or 'residual', got {which!r}")
    if len(series) < 8:
        raise ValueError(f"need at least 8 records to classify, got {len(series)}")
    if which == "error":
        norms = [r.err_norm for r in series]
        if any(v is None for v in norms):
            raise ValueError("error classification requires err_norm on every record")
        comp_slot = 1
    else:
        norms = [r.res_norm for r in series]
        comp_slot = 2
    ns = np.array([r.N for r in series], dtype=float)
    vals = np.clip(np.array(norms, dtype=float), 1e-300, None)
    half = len(vals) // 2
    slope = float(
        np.polyfit(np.log(ns[half:]), np.log(vals[half:]), 1)[0]
    )
    last_norm = float(vals[-1])
    max_norm = float(np.max(vals))
    last_comps = [
        abs(c[comp_slot])
        for c in series[-1].tracked_components
        if c[comp_slot] is not None
    ]
    comp_max_last = max(last_comps) if last_comps else 0.0

    componentwise_evidence = comp_max_last <= COMPONENT_TOL
    bounded_evidence = slope < DIVERGENCE_SLOPE
    strong_evidence = last_norm <= TOL_STRONG and bounded_evidence
    weak_evidence = componentwise_evidence and bounded_evidence

    if strong_evidence:
        label = "strong"
    elif weak_evidence:
        label = "weak-not-strong"
    elif componentwise_evidence:
        label = "componentwise-not-weak"
    else:
        label = "none"
    return Classification(
        label=label,
        evidence={
            "last_norm": last_norm,
            "max_norm": max_norm,
            "loglog_slope": slope,
            "comp_max_last": comp_max_last,
            "strong_evidence": strong_evidence,
            "weak_evidence": weak_evidence,
            "componentwise_evidence": componentwise_evidence,
            "tol_strong": TOL_STRONG,
            "component_tol": COMPONENT_TOL,
            "divergence_slope": DIVERGENCE_SLOPE,
            "note": "advisory classification from finite data",
        },
    )


# ---------------------------------------------------------------------------
# spectral noise model
# ---------------------------------------------------------------------------

#: Terms the generic tail sums directly past the largest requested N.
_TAIL_DIRECT = 1 << 17
#: Doubling intervals [x, 2x] of the generic tail's remainder integral.
_TAIL_OCTAVES = 64


def law_tail_sq(law: SequenceLaw, N):
    """Exact-or-bounded tail sum_{n > N} law(n)^2, for an int N or an array of them.

    Power laws use the Hurwitz zeta function, geometric laws the closed
    geometric sum.  Other laws, assumed smooth and eventually monotone,
    are summed directly over 2^17 terms past the largest N.  The rest,
    sum_{n > M}, is the midpoint-rule integral from M + 1/2; for decay
    like n^-s its error is s(s-1)/(24 M^2) of the rest (5e-12 at s = 2).
    The integral is a 16-point Gauss-Legendre rule on doubling
    intervals, added until one is below roundoff of the tail past the
    largest N; if 64 are not enough it is continued geometrically from
    the last two, which is exact for a power-law tail.  A tail that
    overflows or whose intervals do not shrink is not summable and
    returns +inf; a law that evaluates to NaN before its tail is
    negligible (say 0/0 once both parts of a ratio underflow) raises
    ValueError.  For an array, the smaller N add the terms up to
    the largest N in reverse order, so one evaluation serves every N.
    """
    N = np.asarray(N)
    if law.kind in ("pow", "pow1"):
        c, p = law.params
        if 2 * p <= 1:
            out = np.full(N.shape, math.inf)
        else:
            first = N + 1 if law.kind == "pow" else N + 2  # pow1 is pow shifted by one
            out = c * c * scipy.special.zeta(2 * p, first)
    elif law.kind == "geom":
        c, q = law.params
        if abs(q) >= 1:
            out = np.full(N.shape, math.inf)
        else:
            out = c * c * q ** (2 * (N + 1)) / (1 - q * q)
    elif law.kind == "const":
        (c,) = law.params
        out = np.full(N.shape, math.inf if c != 0 else 0.0)
    else:
        out = _generic_tail_sq(law, N)
    return float(out) if out.ndim == 0 else out


def _generic_tail_sq(law: SequenceLaw, N: np.ndarray) -> np.ndarray:
    lo, top = int(N.min()), int(N.max()) + _TAIL_DIRECT
    ref = gauss_legendre(16, 1.0, 2.0)
    octave = (top + 0.5) * 2.0 ** np.arange(_TAIL_OCTAVES)
    # a growing law overflows, and far out a ratio's parts may both
    # underflow to 0/0: the intervals past the negligible ones are not used
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        terms = np.abs(np.asarray(law(np.arange(lo + 1, top + 1)))) ** 2
        nodes = np.abs(np.asarray(law(np.outer(octave, ref.nodes)))) ** 2
        pieces = octave * (nodes @ ref.weights)
    if np.isnan(terms).any():
        raise ValueError(f"{law.name} is not a number at some n > {lo}")
    if not np.all(np.isfinite(terms)):
        return np.full(N.shape, math.inf)
    # the tail past the largest N, to which a negligible interval is relative
    tail = float(np.sum(terms[int(N.max()) - lo :]))
    kept = 0
    for piece in pieces:
        if piece <= np.finfo(float).eps * tail:
            break
        if np.isnan(piece):
            raise ValueError(f"{law.name} is not a number at some n > {top}")
        if np.isinf(piece):
            return np.full(N.shape, math.inf)
        tail += piece
        kept += 1
    rest = float(np.sum(pieces[:kept][::-1]))
    if kept == len(pieces):
        ratio = pieces[-1] / pieces[-2]
        if ratio >= 1:
            return np.full(N.shape, math.inf)
        rest += pieces[-1] * ratio / (1.0 - ratio)
    suffix = np.cumsum(np.append(terms, rest)[::-1])[::-1]
    return suffix[N - lo]


def ratio_law(num: SequenceLaw, den: SequenceLaw) -> SequenceLaw:
    """The law n -> num(n)/den(n), keeping a closed form for pow, pow1 and geom pairs."""
    if num.kind == den.kind and num.kind in ("pow", "pow1"):
        (c1, p1), (c2, p2) = num.params, den.params
        make = power_law if num.kind == "pow" else shifted_power_law
        return make(c1 / c2, p1 - p2)
    if num.kind == den.kind == "geom":
        (c1, q1), (c2, q2) = num.params, den.params
        return geometric_law(c1 / c2, q1 / q2)
    return SequenceLaw(
        f"ratio({num.name},{den.name})",
        lambda n: np.asarray(num(n)) / np.asarray(den(n)),
    )


@dataclass(frozen=True)
class NoiseModel:
    """Spectral data in the singular frame: sigma, g, nu laws (1-indexed)."""

    sigma_law: SequenceLaw
    g_law: SequenceLaw
    nu_law: SequenceLaw

    def solution_law(self) -> SequenceLaw:
        """f_n = g_n / sigma_n."""
        return ratio_law(self.g_law, self.sigma_law)

    def noise_norm_sq(self) -> float:
        return law_tail_sq(self.nu_law, 0)

    def solvable(self) -> bool:
        """Whether g_n/sigma_n is square-summable (computed, not assumed)."""
        return math.isfinite(law_tail_sq(self.solution_law(), 0))


@dataclass(frozen=True)
class NoiseSeries:
    """Closed-form indicator series for the exactly-solvable singular frame.

    Arrays are indexed by N = 0..N_max: alpha(N) = sum_{n<=N} nu^2/sigma^2,
    beta(N) = sum_{n>N} (g/sigma)^2, res_sq(N) = sum_{n<=N} nu^2 +
    sum_{n>N} g^2, err_sq = alpha + beta.  `n_min` is the index of the
    smallest err_sq.
    """

    N: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    res_sq: np.ndarray
    err_sq: np.ndarray
    n_min: int
    noise_norm_sq: float
    solvable: bool


def noise_series(model: NoiseModel, N_max: int) -> NoiseSeries:
    """Evaluate the exact error/residual decomposition up to N_max."""
    if N_max < 1:
        raise ValueError(f"need N_max >= 1, got {N_max}")
    n = np.arange(1, N_max + 1)
    sigma = np.asarray(model.sigma_law(n), dtype=float)
    if not np.all(sigma > 0):
        raise ValueError(
            f"sigma law {model.sigma_law.name} must be positive on 1..{N_max}"
        )
    nu_sq_total = model.noise_norm_sq()
    if not math.isfinite(nu_sq_total):
        raise ValueError(f"noise law {model.nu_law.name} is not square-summable")
    nu_sq = np.abs(np.asarray(model.nu_law(n))) ** 2
    g_sq = np.abs(np.asarray(model.g_law(n))) ** 2
    alpha = np.concatenate([[0.0], np.cumsum(nu_sq / sigma ** 2)])
    Ns = np.arange(0, N_max + 1)
    beta = law_tail_sq(model.solution_law(), Ns)
    g_tail = law_tail_sq(model.g_law, Ns)
    res_sq = np.concatenate([[0.0], np.cumsum(nu_sq)]) + g_tail
    err_sq = alpha + beta
    return NoiseSeries(
        N=np.arange(0, N_max + 1),
        alpha=alpha,
        beta=beta,
        res_sq=res_sq,
        err_sq=err_sq,
        n_min=int(np.argmin(err_sq)),
        noise_norm_sq=nu_sq_total,
        solvable=bool(np.isfinite(beta[0])),
    )


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
