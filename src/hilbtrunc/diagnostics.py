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
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.special

from .bases import OrthonormalBasis
from .core import SpaceMismatchError, gauss_legendre
from .elements import CoordinateBlock, element, inner, stack
from .operators import (
    BoundedOperator,
    SequenceLaw,
    check_bounded,
    geometric_law,
    power_law,
    shifted_power_law,
)
from .truncation import ApproxSolution, lift

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


#: A sweep is evaluated in chunks of records whose padded coordinate rows,
#: two image columns included, hold at most this many complex entries
#: (32 KiB), or of one record: no block nears glibc's 128 KiB mmap
#: threshold, and a chunk holds a few solutions alive at a time.
_CHUNK_ENTRIES = 2048


def evaluate(
    op: BoundedOperator,
    g,
    sol: ApproxSolution,
    trial: OrthonormalBasis,
    test: OrthonormalBasis,
    f_exact=None,
    tracked: Sequence[int] = DEFAULT_TRACKED,
) -> ConvergenceRecord:
    """The record of one solution: `evaluate_sweep` of [sol]."""
    (record,) = evaluate_sweep(op, g, [sol], trial, test, f_exact, tracked)
    return record


def evaluate_sweep(
    op: BoundedOperator,
    g,
    sols: Iterable[ApproxSolution],
    trial: OrthonormalBasis,
    test: OrthonormalBasis,
    f_exact=None,
    tracked: Sequence[int] = DEFAULT_TRACKED,
) -> list:
    """The records of the error f - fhat and residual g - A fhat of each
    lifted solution fhat, for the solutions `sols` in order.

    Without `f_exact` the records are residual-only (error fields None).
    Component traces use the declared trial/test bases and skip indices
    beyond a finite family; a Krylov family runs its recursion to an
    index to find out whether it has one.

    Each solution is lifted by `lift`, and a chunk of them is applied as
    one coordinate block, on whose rows g - A fhat and f - fhat are
    formed as `Func/Seq.__sub__` forms them.  Each norm is taken over
    the window the element would have had (the operator's
    `image_window` gives the image's), so it keeps the element's bits.
    On a coordinate frame a component of an atom-free element is its
    coefficient at the frame vector's coordinate, which is what `inner`
    with that vector returns; on any other family it is that `inner`.
    `sols` may be a generator: it is drawn one chunk at a time.
    """
    base = _window(g) if f_exact is None else _union(_window(g), _window(f_exact))
    records, chunk, span = [], [], base
    for sol in sols:
        fhat = lift(sol, trial)
        grown = _union(span, _window(fhat))
        if chunk and (len(chunk) + 1) * (grown[1] - grown[0] + 2) > _CHUNK_ENTRIES:
            records += _records(op, g, chunk, trial, test, f_exact, tracked)
            chunk, grown = [], _union(base, _window(fhat))
        chunk.append((sol, fhat))
        span = grown
    if chunk:
        records += _records(op, g, chunk, trial, test, f_exact, tracked)
    return records


def _records(op, g, chunk, trial, test, f_exact, tracked) -> list:
    """The records of a chunk of (solution, lifted solution) pairs."""
    lifted = stack([fhat for _, fhat in chunk])[0]
    res = _differences(g, op.apply_block(lifted))
    err = None if f_exact is None else _differences(f_exact, lifted)
    res_reads = _frame_reads(test, res, tracked)
    err_reads = None if err is None else _frame_reads(trial, err, tracked)
    records = []
    for i, (sol, fhat) in enumerate(chunk):
        w = _window(fhat)
        res_window = _union(_window(g), op.image_window(*w))
        res_norm, res_c = _measure(res, i, res_window, test, tracked, res_reads)
        err_norm, err_c = None, (None,) * len(tracked)
        if err is not None:
            err_window = _union(_window(f_exact), w)
            err_norm, err_c = _measure(err, i, err_window, trial, tracked, err_reads)
        if sol.element is not None:
            sol_norm = fhat.norm()
        else:
            sol_norm = float(np.linalg.norm(sol.f_N_coeffs))
        records.append(
            ConvergenceRecord(
                N=len(sol.f_N_coeffs) if len(sol.f_N_coeffs) else sol.iterations,
                err_norm=err_norm,
                res_norm=res_norm,
                sol_norm=sol_norm,
                eps_norm=sol.eps_norm,
                tracked_components=tuple(zip(tracked, err_c, res_c)),
            )
        )
    return records


def _window(e) -> tuple:
    """The coefficient window [lo, hi) of an element."""
    return e.origin, e.origin + len(e.values)


def _union(a, b) -> tuple:
    """The window of u + v for u and v of windows a and b, as
    `Func/Seq.__add__` forms it: an empty window adds no extent."""
    if a[0] == a[1]:
        return b
    if b[0] == b[1]:
        return a
    return min(a[0], b[0]), max(a[1], b[1])


def _differences(e, block: CoordinateBlock) -> CoordinateBlock:
    """The rows e - u, u the rows of `block`, with the arithmetic of
    `Func/Seq.__sub__`: e plus (-1.0) times u, on zeros (addition
    commutes, so adding e last moves no bit).  Their coordinates run
    without a gap over the union of e's window and the block's columns;
    their atoms are the union of both, sorted."""
    if e.space != block.space:
        raise SpaceMismatchError(f"cannot pair elements of {e.space} with elements of {block.space}")
    index = block.index
    lo, hi = _union(_window(e), (index[0], index[-1] + 1) if len(index) else (0, 0))
    rows = block.coords.shape[0]
    coords = np.zeros((rows, hi - lo), dtype=complex)
    if len(index) and index[-1] - index[0] == len(index) - 1:  # one run: in place
        np.multiply(-1.0, block.coords, out=coords[:, index[0] - lo : index[-1] + 1 - lo])
    else:
        coords[:, index - lo] = (-1.0) * block.coords
    coords[:, e.origin - lo : e.origin - lo + len(e.values)] += e.values
    atoms = tuple(sorted(set(e.osc) | set(block.atoms)))
    slot = {key: j for j, key in enumerate(atoms)}
    osc = np.zeros((rows, len(atoms)), dtype=complex)
    for key, c in e.osc.items():
        osc[:, slot[key]] += c
    osc[:, [slot[key] for key in block.atoms]] += (-1.0) * block.osc
    return CoordinateBlock(block.space, coords, np.arange(lo, hi), osc, atoms)


def _frame_reads(basis: OrthonormalBasis, block: CoordinateBlock, tracked):
    """On a coordinate frame, the array of the rows' coefficients at the
    coordinates of the elements n in `tracked` (zeros where a row's
    window ends before one); None on any other family."""
    if basis.coordinates is None or not tracked:
        return None
    lo, at = basis.coordinates(max(tracked))
    cols = lo + at[np.asarray(tracked) - 1] - (block.index[0] if len(block.index) else 0)
    inside = (cols >= 0) & (cols < len(block.index))
    reads = np.zeros((block.coords.shape[0], len(tracked)), dtype=complex)
    reads[:, inside] = block.coords[:, cols[inside]]
    return reads


def _measure(block: CoordinateBlock, i: int, window, basis: OrthonormalBasis, tracked, reads) -> tuple:
    """(norm, components) of row i of a block of contiguous coordinates,
    taken as the element e of coefficient window [lo, hi) with the row's
    nonzero atoms: `e.norm()`, and [<element n of `basis`, e> for n in
    `tracked`, None where the family has no element n].

    An atom-free row on a coordinate frame, which is unbounded, builds
    no element.  Its norm is that of its window's coefficients, as
    `Func/Seq.norm` takes it, and its component n is its coefficient at
    the coordinate of element n, `reads[i]` (outside the row's window, a
    zero of the padding): what `inner` with the frame vector, a product
    with 1, returns.  Any other family, or a row with atoms, takes that
    `inner` with the element."""
    lo, hi = window
    first = int(block.index[0]) if len(block.index) else lo
    values = block.coords[i, lo - first : hi - first]
    osc = {}
    if block.atoms:
        osc = {key: c for key, c in zip(block.atoms, block.osc[i].tolist()) if c != 0}
    if reads is not None and not osc:
        return float(np.linalg.norm(values)), reads[i].tolist()
    e = element(block.space, lo, values, osc)
    return e.norm(), [inner(basis.element(n), e) if basis.has(n) else None for n in tracked]


@dataclass(frozen=True)
class Classification:
    """Advisory verdict on how an indicator series vanishes."""

    label: str  # strong | weak-not-strong | componentwise-not-weak | none
    evidence: dict


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
    check_bounded(model.sigma_law, "sigma law")
    n = np.arange(1, N_max + 1)
    sigma = np.asarray(model.sigma_law(n), dtype=float)
    if not np.all(sigma > 0):
        raise ValueError(
            f"sigma law {model.sigma_law.name} must be positive on 1..{N_max}"
        )
    nu_sq_total = law_tail_sq(model.nu_law, 0)
    if not math.isfinite(nu_sq_total):
        raise ValueError(f"noise law {model.nu_law.name} is not square-summable")
    Ns = np.arange(0, N_max + 1)
    g_tail = law_tail_sq(model.g_law, Ns)
    if not math.isfinite(g_tail[0]):
        raise ValueError(f"datum law {model.g_law.name} is not square-summable")
    nu_sq = np.abs(np.asarray(model.nu_law(n))) ** 2
    alpha = np.concatenate([[0.0], np.cumsum(nu_sq / sigma ** 2)])
    beta = law_tail_sq(ratio_law(model.g_law, model.sigma_law), Ns)  # f_n = g_n / sigma_n
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
