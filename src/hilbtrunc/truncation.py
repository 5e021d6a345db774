"""Build N-dimensional truncations, solve them, lift solutions back.

The compression of an operator between the spans of the first N trial
and test vectors is assembled entrywise from exact applications and
inner products.  Direct solves use minimum-norm least squares; the
iterative paths are GMRES (residual minimization over nested Krylov
spaces) and conjugate gradients (energy minimization for self-adjoint
positive operators), both formulated in ambient element arithmetic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import CapabilityError, RANK_RTOL, qr_least_squares
from .bases import OrthonormalBasis, krylov_basis
from .elements import inner, lincomb
from .operators import BoundedOperator

#: Families for picking a solution of a singular truncated problem.
SOLUTION_FAMILIES = ("min-norm", "kernel-unit", "kernel-scaled")


@dataclass(frozen=True)
class TruncatedProblem:
    """The pair (A_N, g_N) with its provenance; entries are read-only."""

    N: int
    A_N: np.ndarray
    g_N: np.ndarray
    trial: str
    test: str
    operator: str

    def leading(self, N: int) -> "TruncatedProblem":
        """The truncation at size N <= self.N: the leading N x N block.

        Entry (i, j) of a compression does not depend on its size, so
        the slice equals compressing at N directly.
        """
        if not 1 <= N <= self.N:
            raise ValueError(f"need 1 <= N <= {self.N}, got {N}")
        return replace(self, N=N, A_N=self.A_N[:N, :N], g_N=self.g_N[:N])


@dataclass
class ApproxSolution:
    """An approximate solution of a truncated problem.

    `f_N_coeffs` is the coordinate array relative to the trial family
    used by the producing solver (for the iterative solvers, the Krylov
    frame).
    `eps_norm` is the finite-dimensional defect ||A_N f - g_N|| in the
    solver's own test frame.  `element` is an optional exact ambient
    representative (set by solve_cg, whose iterates carry an affine
    offset).
    """

    f_N_coeffs: np.ndarray
    eps_norm: float
    solver: str
    iterations: int
    element: object = None


def compress(
    op: BoundedOperator,
    trial: OrthonormalBasis,
    test: OrthonormalBasis,
    N: int,
    g,
) -> TruncatedProblem:
    """Assemble A_N[i, j] = <v_i, A u_j> and g_N[i] = <v_i, g>.

    The inner projections of the compression are redundant at these
    indices, so entries are computed directly from exact applications.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if trial.space != op.space or test.space != op.space:
        raise CapabilityError(
            f"bases ({trial.label}, {test.label}) do not live in the ambient "
            f"space of {op.label}"
        )
    applied = [op.apply(trial.element(j)) for j in range(1, N + 1)]
    if any(getattr(u, "approximate", False) for u in applied) or getattr(
        g, "approximate", False
    ):
        warnings.warn(
            "compressing projected (approximate) elements: entries are exact "
            "only up to the projection degree",
            stacklevel=2,
        )
    tests = test.elements(N)
    A = np.array([[inner(v, au) for au in applied] for v in tests])
    gvec = np.array([inner(v, g) for v in tests])
    A.flags.writeable = False
    gvec.flags.writeable = False
    return TruncatedProblem(
        N=N,
        A_N=A,
        g_N=gvec,
        trial=trial.label,
        test=test.label,
        operator=op.label,
    )


def lift(sol: ApproxSolution, trial: OrthonormalBasis):
    """Hat-lift: the ambient element whose first N trial coefficients are f^(N)."""
    if sol.element is not None:
        return sol.element
    coeffs = sol.f_N_coeffs
    return lincomb(coeffs, trial.elements(len(coeffs)))


def _kernel_vector(A: np.ndarray) -> Optional[np.ndarray]:
    """Unit kernel vector of a numerically singular matrix, canonicalized.

    Returns None when the smallest singular value is above the rank
    threshold.  Entries below 1e-14 of the peak are snapped to zero so
    structurally sparse kernels (e.g. a zero column) come out exact.
    """
    u, s, vh = np.linalg.svd(A)
    if len(s) == 0 or s[-1] > RANK_RTOL * max(s[0], 1e-300):
        return None
    v = np.conj(vh[-1])
    v[np.abs(v) < 1e-14 * np.max(np.abs(v))] = 0.0
    pivot = v[int(np.argmax(np.abs(v)))]
    v = v * (np.conj(pivot) / abs(pivot))
    return v / np.linalg.norm(v)


def solve_direct(p: TruncatedProblem, family: str = "min-norm") -> ApproxSolution:
    """Minimum-norm least-squares solution of A_N f = g_N.

    `family` reproduces deliberately bad selections when A_N is
    singular: "kernel-unit" adds the unit kernel vector to the
    minimum-norm solution, "kernel-scaled" adds N times it.  For a
    nonsingular A_N both reduce to the unique solution.
    """
    if family not in SOLUTION_FAMILIES:
        raise ValueError(f"unknown solution family {family!r}")
    x = qr_least_squares(p.A_N, p.g_N)
    if family != "min-norm":
        kernel = _kernel_vector(p.A_N)
        if kernel is not None:
            scale = 1.0 if family == "kernel-unit" else float(p.N)
            x = x + scale * kernel
    eps = float(np.linalg.norm(p.A_N @ x - p.g_N))
    return ApproxSolution(
        f_N_coeffs=x,
        eps_norm=eps,
        solver="qr" if family == "min-norm" else f"qr[{family}]",
        iterations=0,
    )


def solve_gmres(
    op: BoundedOperator,
    g,
    N_max: int,
    tol: float = 1e-10,
):
    """Residual-minimizing Krylov iterates over K_n(A, g), n = 1..N_max.

    Returns (solutions, basis), the basis being the Krylov frame the
    coordinates refer to.  Stops early once the residual norm reaches
    the absolute bound `tol` or the Krylov space is exhausted (the list
    then ends at the last built step).  Residual norms are exact:
    A x - g lies in the spanned frame, so the Hessenberg least-squares
    value is the ambient norm.
    """
    gnorm = g.norm()
    if gnorm == 0:
        raise ValueError("gmres needs a nonzero datum")
    basis = krylov_basis(op, g, N_max + 1)
    H = basis.hessenberg
    steps = H.shape[1]
    sols = []
    for n in range(1, steps + 1):
        rhs = np.zeros(n + 1, dtype=complex)
        rhs[0] = gnorm
        y = qr_least_squares(H[: n + 1, :n], rhs)
        res = float(np.linalg.norm(H[: n + 1, :n] @ y - rhs))
        sols.append(
            ApproxSolution(
                f_N_coeffs=y,
                eps_norm=res,
                solver="gmres",
                iterations=n,
            )
        )
        if res <= tol:
            break
    return sols, basis


def solve_cg(
    op: BoundedOperator,
    g,
    N_max: int,
    f0=None,
):
    """Conjugate-gradient iterates minimizing the energy functional.

    Requires a self-adjoint positive operator.  Iterate n minimizes
    Phi[h] = Re<h, Ah> - 2 Re<h, g> over the affine Krylov space
    f0 + span{r_0, A r_0, ..., A^{n-1} r_0}.  The normalized residuals
    double as the orthonormal Krylov frame for the recorded coordinates.
    """
    if not (op.self_adjoint and op.positive):
        raise CapabilityError(
            f"conjugate gradients needs a self-adjoint positive operator; "
            f"{op.label} is not"
        )
    x = (0.0 * g) if f0 is None else f0
    r = g - op.apply(x)
    sols = []
    rnorm0 = r.norm()
    floor = 1e-15 * max(g.norm(), 1.0)
    if rnorm0 <= floor:
        sols.append(
            ApproxSolution(
                f_N_coeffs=np.zeros(0, dtype=complex),
                eps_norm=0.0,
                solver="cg",
                iterations=0,
                element=x,
            )
        )
        return sols
    frame = [(1.0 / rnorm0) * r]
    p = r
    rho = rnorm0 ** 2
    offset = x
    for n in range(1, N_max + 1):
        ap = op.apply(p)
        denom = inner(p, ap).real
        if denom <= 0:
            raise CapabilityError(
                f"{op.label} is not positive on the Krylov space (found "
                f"<p, Ap> = {denom:.3e})"
            )
        alpha = rho / denom
        x = x + alpha * p
        r = r - alpha * ap
        diff = x - offset
        coords = np.array([inner(q, diff) for q in frame])
        eps = float(
            np.sqrt(sum(abs(inner(q, r)) ** 2 for q in frame[: len(coords)]))
        )
        sols.append(
            ApproxSolution(
                f_N_coeffs=coords,
                eps_norm=eps,
                solver="cg",
                iterations=n,
                element=x,
            )
        )
        rho_new = r.norm() ** 2
        if np.sqrt(rho_new) <= floor:
            break
        frame.append((1.0 / np.sqrt(rho_new)) * r)
        p = r + (rho_new / rho) * p
        rho = rho_new
    return sols
