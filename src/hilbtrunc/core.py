"""Numerical substrate shared by all other modules.

Gauss-Legendre quadrature rules, minimum-norm least squares (pivoted QR,
or banded LU for large full-rank band systems), and singular values, on
plain numpy arrays.  Quadrature rules are immutable after construction
and safe to share across threads; the operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

#: Relative rank threshold for least squares: singular values below
#: RANK_RTOL times the largest one are treated as zero.
RANK_RTOL = 1e-12

#: Square systems with more rows than this are tried as band systems
#: before pivoted QR.  It is the size from which LAPACK's `ilaenv` gives
#: `zgeqp3` its blocked code; every truncation the presets make is
#: smaller, so their solutions keep pivoted QR's bits.
BANDED_MIN_N = 128


class CapabilityError(Exception):
    """An operator or basis was asked for a capability it does not have."""


class SpaceMismatchError(Exception):
    """Two objects living in different ambient spaces were combined."""


class ConfigError(Exception):
    """An experiment configuration could not be parsed or validated."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights of a quadrature rule on [a, b]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.shape != weights.shape:
            raise ValueError("nodes and weights must have equal length")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def gauss_legendre(order: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with `order` points, mapped affinely to [a, b].

    Exact for polynomials of degree <= 2*order - 1.

    Raises
    ------
    ValueError
        If order < 1 or the interval is degenerate (a >= b).
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    if not a < b:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (b - a)
    return QuadratureRule(a + half * (x + 1.0), half * w)


def qr_least_squares(A: np.ndarray, b) -> np.ndarray:
    """Minimum-norm minimizer of ||A x - b||.

    For square nonsingular A this is the exact solution.  Rank decisions
    use RANK_RTOL relative to the largest singular value; in the
    rank-deficient case the minimum-norm solution is returned.  A zero
    b (with a finite A) has the zero minimum-norm solution, returned
    without a factorization.  A square band system larger than
    BANDED_MIN_N that banded LU proves to have full rank is solved by
    that LU (see `_banded_solve`); every other system, and every one of
    at most BANDED_MIN_N rows, by pivoted-QR least squares (`gelsy`).
    """
    b = np.asarray(b).reshape(-1)
    if A.shape[0] != len(b):
        raise ValueError(f"dimension mismatch: A has {A.shape[0]} rows, b has {len(b)}")
    if not b.any() and np.isfinite(A).all():
        gelsy = scipy.linalg.get_lapack_funcs("gelsy", (A, b))
        return np.zeros(A.shape[1], dtype=gelsy.dtype)
    x = _banded_solve(A, b)
    if x is None:
        x, _, _, _ = scipy.linalg.lstsq(A, b, cond=RANK_RTOL, lapack_driver="gelsy")
    return x


def _banded_solve(A: np.ndarray, b: np.ndarray):
    """Solution of a square band system of full rank by banded LU, or None.

    Applies when A is N x N with N > BANDED_MIN_N, its lower and upper
    bandwidths kl and ku (read from its nonzeros) satisfy 2 kl + ku + 1
    < N, and the entries are finite.  The band is factored by `?gbtrf`
    and solved by `?gbtrs`, O(N (kl + 1) (kl + ku + 1)) work in place of
    pivoted QR's O(N^3); the LAPACK routines follow the dtype of A and b.

    Full rank counts as proven when `?gbcon`'s estimate of the
    reciprocal 1-norm condition number is at least 10 N RANK_RTOL.  Since
    cond_2 <= N cond_1, and the estimate of cond_1 usually falls short of
    it by less than 10x, `gelsy` would then find full rank at RANK_RTOL
    too, and both return the unique solution.  The factor 10 is a
    heuristic margin, not a proof.  Returns None (so pivoted QR) on a
    zero pivot, a rank not proven, or a NaN estimate.
    """
    n = A.shape[0]
    if A.shape[1] != n or n <= BANDED_MIN_N:
        return None
    rows, cols = np.divmod(np.flatnonzero(A != 0), n)
    offsets = cols - rows
    kl, ku = -int(offsets.min(initial=0)), int(offsets.max(initial=0))
    if 2 * kl + ku + 1 >= n:
        return None
    gbtrf, gbcon, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbcon", "gbtrs"), (A, b))
    # band storage: row kl + ku + i - j holds A[i, j]; the top kl rows
    # are room for the fill-in of the row interchanges
    ab = np.zeros((2 * kl + ku + 1, n), dtype=gbtrf.dtype)
    for k in range(-kl, ku + 1):
        ab[kl + ku - k, max(k, 0) : n + min(k, 0)] = np.diagonal(A, k)
    anorm = np.abs(ab).sum(axis=0).max()  # ||A||_1, the largest column sum
    if not (np.isfinite(anorm) and np.isfinite(b).all()):
        return None
    lu, ipiv, info = gbtrf(ab, kl, ku, overwrite_ab=1)
    if info != 0:
        return None
    rcond, _ = gbcon(kl, ku, lu, ipiv, anorm)
    if not rcond >= 10 * n * RANK_RTOL:
        return None
    x, _ = gbtrs(lu, kl, ku, b.astype(gbtrf.dtype)[:, None], ipiv, overwrite_b=1)
    return x[:, 0]


def singular_values(A: np.ndarray) -> np.ndarray:
    """Singular values of A in descending order."""
    return np.linalg.svd(A, compute_uv=False)
