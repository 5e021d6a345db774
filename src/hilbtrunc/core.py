"""Numerical substrate shared by all other modules.

Gauss-Legendre quadrature rules, minimum-norm least squares (pivoted QR,
or banded LU for large full-rank band systems), and singular values, on
plain numpy arrays.  Quadrature rules are immutable after construction
and safe to share across threads; the operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

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


@dataclass(frozen=True, eq=False)
class BandMatrix:
    """An n x n matrix held by its diagonals, kl below and ku above the
    main one, in LAPACK's band layout: row ku + i - j of `ab` holds entry
    (i, j), and the positions outside the matrix hold zeros.  The array
    `dense` is built when first asked for; until then `A @ x` is the band
    product, O(n (kl + ku + 1)).
    """

    ab: np.ndarray
    kl: int
    ku: int
    shape = property(lambda self: (self.ab.shape[1],) * 2)

    def diagonal(self, k: int = 0) -> np.ndarray:
        """The entries (i, i + k), -kl <= k <= ku, as `np.diagonal`."""
        n = self.ab.shape[1]
        return self.ab[self.ku - k, max(k, 0) : max(n + min(k, 0), 0)]

    def leading(self, n: int) -> "BandMatrix":
        """The leading n x n block.  Those of a matrix of at most
        BANDED_MIN_N rows, which pivoted QR solves, share its `dense`."""
        ab = self.ab[:, :n].copy()
        ab[np.arange(n) + np.arange(-self.ku, self.kl + 1)[:, None] >= n] = 0.0  # below the block
        ab.flags.writeable = False
        block = BandMatrix(ab, self.kl, self.ku)
        if self.shape[0] <= BANDED_MIN_N:
            block.__dict__["dense"] = self.dense[:n, :n]
        return block

    @cached_property
    def dense(self) -> np.ndarray:
        n = self.shape[0]
        A = np.zeros((n, n), dtype=self.ab.dtype)
        for k in range(-self.kl, self.ku + 1):
            d = self.diagonal(k)
            A.reshape(-1)[max(-k, 0) * n + max(k, 0) :: n + 1][: len(d)] = d
        A.flags.writeable = False
        return A

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if "dense" in self.__dict__:
            return self.dense @ x
        offsets = np.arange(self.ku, -self.kl - 1, -1)  # of the rows of `ab`
        return scipy.sparse.dia_array((self.ab, offsets), shape=self.shape) @ x


def qr_least_squares(A, b) -> np.ndarray:
    """Minimum-norm minimizer of ||A x - b||.

    For square nonsingular A this is the exact solution.  Rank decisions
    use RANK_RTOL relative to the largest singular value; in the
    rank-deficient case the minimum-norm solution is returned.  A zero
    b (with a finite A) has the zero minimum-norm solution, returned
    without a factorization.  A square band system larger than
    BANDED_MIN_N that banded LU proves to have full rank is solved by
    that LU (see `_banded_solve`); every other system, and every one of
    at most BANDED_MIN_N rows, by pivoted-QR least squares (`gelsy`).
    A is an array or a `BandMatrix`.
    """
    b = np.asarray(b).reshape(-1)
    if A.shape[0] != len(b):
        raise ValueError(f"dimension mismatch: A has {A.shape[0]} rows, b has {len(b)}")
    entries = A.ab if isinstance(A, BandMatrix) else A
    if not b.any() and np.isfinite(entries).all():
        gelsy = scipy.linalg.get_lapack_funcs("gelsy", (entries, b))
        return np.zeros(A.shape[1], dtype=gelsy.dtype)
    x = _banded_solve(A, b)
    if x is None:
        dense = A.dense if isinstance(A, BandMatrix) else A
        x, _, _, _ = scipy.linalg.lstsq(dense, b, cond=RANK_RTOL, lapack_driver="gelsy")
    return x


def _banded_solve(A, b: np.ndarray):
    """Solution of a square band system of full rank by banded LU, or None.

    Applies when A is N x N with N > BANDED_MIN_N, its bandwidths kl and
    ku (from `_bandwidths`) satisfy 2 kl + ku + 1 < N, and the entries
    are finite.  `?gbtrf` factors the band and `?gbtrs` solves, O(N (kl
    + 1) (kl + ku + 1)) work in place of pivoted QR's O(N^3), in the
    dtype of A and b.

    Full rank counts as proven when `?gbcon`'s estimates of the factors'
    reciprocal condition numbers give rcond_1 >= 10 N RANK_RTOL (as
    cond_2 <= N cond_1) or sqrt(rcond_1 rcond_inf) >= 10 RANK_RTOL (as
    cond_2 <= sqrt(cond_1 cond_inf), from ||B||_2 <= sqrt(||B||_1
    ||B||_inf); Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, ch. 6).  The estimates usually fall short of cond by
    less than 10x, so `gelsy` would find full rank at RANK_RTOL too; the
    factor 10 is a heuristic margin, not a proof.  Returns None (so
    pivoted QR) on a zero pivot, a rank not proven, or a NaN estimate.
    """
    n = A.shape[0]
    if A.shape[1] != n or n <= BANDED_MIN_N:
        return None
    kl, ku = _bandwidths(A)
    if 2 * kl + ku + 1 >= n:
        return None
    names = ("gbtrf", "gbcon", "gbtrs")
    gbtrf, gbcon, gbtrs = scipy.linalg.get_lapack_funcs(names, (A.diagonal(), b))
    # band storage: row kl + ku + i - j holds A[i, j]; the top kl rows
    # are room for the fill-in of the row interchanges
    ab = np.zeros((2 * kl + ku + 1, n), dtype=gbtrf.dtype)
    for k in range(-kl, ku + 1):
        ab[kl + ku - k, max(k, 0) : n + min(k, 0)] = A.diagonal(k)
    mag = np.abs(ab[kl:])
    anorm = mag.sum(axis=0).max()  # ||A||_1, the largest column sum
    # ||A||_inf, the largest row sum; np.roll wraps only zeros, from outside A
    inorm = sum(np.roll(row, r - ku) for r, row in enumerate(mag)).max()
    if not (np.isfinite(anorm) and np.isfinite(b).all()):
        return None
    lu, ipiv, info = gbtrf(ab, kl, ku, overwrite_ab=1)
    if info != 0:
        return None
    rcond, _ = gbcon(kl, ku, lu, ipiv, anorm)
    if not rcond >= 10 * n * RANK_RTOL:
        rcond_inf, _ = gbcon(kl, ku, lu, ipiv, inorm, norm="I")
        if not math.sqrt(rcond * rcond_inf) >= 10 * RANK_RTOL:
            return None
    x, _ = gbtrs(lu, kl, ku, b.astype(gbtrf.dtype)[:, None], ipiv, overwrite_b=1)
    return x[:, 0]


def _bandwidths(A) -> tuple:
    """The lower and upper bandwidths (kl, ku) of A's nonzeros: from a
    `BandMatrix`'s diagonals, O(N) each, or a scan of an array, O(N^2)."""
    if isinstance(A, BandMatrix):
        held = [k for k in range(-A.kl, A.ku + 1) if A.diagonal(k).any()]
        offsets = np.array(held, dtype=int)
    else:
        rows, cols = np.divmod(np.flatnonzero(A != 0), A.shape[1])
        offsets = cols - rows
    return -int(offsets.min(initial=0)), int(offsets.max(initial=0))


def singular_values(A: np.ndarray) -> np.ndarray:
    """Singular values of A in descending order."""
    return np.linalg.svd(A, compute_uv=False)
