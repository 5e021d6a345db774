"""Numerical substrate shared by all other modules.

Gauss-Legendre quadrature rules, dense minimum-norm least squares, and
singular values, on plain numpy arrays.  Quadrature rules are immutable
after construction and safe to share across threads; the operations are
pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

#: Relative rank threshold for least squares: singular values below
#: RANK_RTOL times the largest one are treated as zero.
RANK_RTOL = 1e-12


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
    """Minimum-norm minimizer of ||A x - b|| via pivoted-QR least squares.

    For square nonsingular A this is the exact solution.  Rank decisions
    use RANK_RTOL relative to the largest singular value; in the
    rank-deficient case the minimum-norm solution is returned.  A zero
    b (with a finite A) has the zero minimum-norm solution, returned
    without a factorization.
    """
    b = np.asarray(b).reshape(-1)
    if A.shape[0] != len(b):
        raise ValueError(f"dimension mismatch: A has {A.shape[0]} rows, b has {len(b)}")
    if not b.any() and np.isfinite(A).all():
        gelsy = scipy.linalg.get_lapack_funcs("gelsy", (A, b))
        return np.zeros(A.shape[1], dtype=gelsy.dtype)
    x, _, _, _ = scipy.linalg.lstsq(A, b, cond=RANK_RTOL, lapack_driver="gelsy")
    return x


def singular_values(A: np.ndarray) -> np.ndarray:
    """Singular values of A in descending order."""
    return np.linalg.svd(A, compute_uv=False)
