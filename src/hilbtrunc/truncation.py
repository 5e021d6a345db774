"""Build N-dimensional truncations, solve them, lift solutions back.

The compression of an operator between the spans of the first N trial
and test vectors is one application of the operator to the trial
coordinate block, and products of the test block with the images and
with the datum.  Direct solves use minimum-norm least squares.  The
iterative paths share one Arnoldi basis of the Krylov spaces and its
Hessenberg matrix: GMRES minimizes the residual over them, conjugate
gradients (self-adjoint positive operators) solve the Galerkin system,
which minimizes the energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg

from .core import CapabilityError, RANK_RTOL, qr_least_squares, singular_values
from .bases import KrylovBasis, OrthonormalBasis
from .elements import appended, inner_matrix, lincomb
from .operators import BoundedOperator

#: Families for picking a solution of a singular truncated problem.
SOLUTION_FAMILIES = ("min-norm", "kernel-unit", "kernel-scaled")


@dataclass(frozen=True, eq=False)
class TruncatedProblem:
    """The pair (A_N, g_N); entries are read-only.

    `band` = (kl, ku) bounds the lower and upper bandwidths of A_N on a
    pair of coordinate frames, from the operator's `frame_band`; None on
    any other pair.  Problems compare and hash by identity.
    """

    N: int
    A_N: np.ndarray
    g_N: np.ndarray
    band: Optional[tuple] = None

    def leading(self, N: int) -> "TruncatedProblem":
        """The truncation at size N <= self.N: the leading N x N block.

        Entry (i, j) of a compression does not depend on its size, so
        the slice equals compressing at N directly; its band lies inside
        the band of the whole.
        """
        if not 1 <= N <= self.N:
            raise ValueError(f"need 1 <= N <= {self.N}, got {N}")
        return replace(self, N=N, A_N=self.A_N[:N, :N], g_N=self.g_N[:N])


@dataclass
class ApproxSolution:
    """An approximate solution of a truncated problem.

    `f_N_coeffs` is the coordinate array relative to the trial family
    used by the producing solver (for the iterative solvers, the Krylov
    basis they return).
    `eps_norm` is the finite-dimensional defect ||A_N f - g_N|| in the
    solver's own test frame.  `element` is an optional exact ambient
    representative (set by solve_cg, whose iterates carry an affine
    offset).
    """

    f_N_coeffs: np.ndarray
    eps_norm: float
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
    indices, so entries are computed directly from exact applications:
    the operator maps one block in one application, and A_N and g_N come
    from one `inner_matrix` product of the test block with the images
    and g.  A frame's test block is a sparse selection, so on Legendre
    and canonical frames A_N is the operator's coefficient matrix, bit
    for bit, and no basis element is built.

    When trial and test are coordinate frames, the operator's
    `frame_band` (kl, ku) makes the block the s = kl + ku + 1 comb
    probes of the trial frame (Curtis, Powell & Reid, J. Inst. Math.
    Appl. 13, 1974): each entry in the band is read from the probe that
    holds its column, with the bits the frame's block gives it, and
    every other entry is a zero.  That is O(N s) work and one N x N
    array, and the problem carries A_N's band.  Any other pair maps the
    trial block (a frame's own block, or the stacked trial elements).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if trial.space != op.space or test.space != op.space:
        raise CapabilityError(
            f"bases ({trial.label}, {test.label}) do not live in the ambient "
            f"space of {op.label}"
        )
    tests = test.block(N, sparse=True)
    frames = trial.coordinates is not None and test.coordinates is not None
    if frames:
        kl, ku = op.frame_band
        s = kl + ku + 1
        P = inner_matrix(tests, appended(op.apply_block(trial.combs(N, s)), g))
        # both are the frame of op's space: one window, one enumeration
        _, at = trial.coordinates(N)
        # the window coordinates each column's image reaches, and their rows
        reach = at + np.arange(-ku, kl + 1)[:, None]
        inside = (reach >= 0) & (reach < N)
        cols = np.broadcast_to(np.arange(N), reach.shape)[inside]
        rows = np.argsort(at)[reach[inside]]
        A = np.zeros((N, N), dtype=complex)
        A[rows, cols] = P[rows, at[cols] % s]
        offsets = cols - rows
        band = (-int(offsets.min(initial=0)), int(offsets.max(initial=0)))
    else:
        P = inner_matrix(tests, appended(op.apply_block(trial.block(N)), g))
        A = np.ascontiguousarray(P[:, :N])
        band = None
    gvec = P[:, -1].copy()
    A.flags.writeable = False
    gvec.flags.writeable = False
    return TruncatedProblem(N=N, A_N=A, g_N=gvec, band=band)


def lift(sol: ApproxSolution, trial: OrthonormalBasis):
    """Hat-lift: the ambient element whose first N trial coefficients are f^(N).

    A coordinate frame (Legendre, canonical) places the coefficients at
    its coordinates; any other trial family is summed by `lincomb`.
    """
    if sol.element is not None:
        return sol.element
    coeffs = sol.f_N_coeffs
    if trial.coordinates is not None:
        return trial.place(coeffs)
    return lincomb(coeffs, trial.elements(len(coeffs)))


def _kernel_vector(A: np.ndarray) -> Optional[np.ndarray]:
    """Unit kernel vector of a numerically singular matrix, canonicalized.

    Returns None when A has no more columns than rows and its smallest
    singular value is above the rank threshold.  The vector is the unit
    vector at the last exactly zero column of A if there is one (no
    factorization), else the last column q of Q in the pivoted QR of
    A^H (for square A, ||A q|| = |R[-1, -1]|), got by applying the QR's
    Householder reflectors to e_N.  That choice also decides
    which vector a kernel of more than one dimension yields.  Entries
    below 1e-14 of the peak are snapped to zero, so structurally sparse
    kernels come out exact, and the largest entry is made real and
    positive.
    """
    zero = np.flatnonzero(~A.any(axis=0))
    if len(zero):
        v = np.zeros(A.shape[1], dtype=np.result_type(A.dtype, 1.0))
        v[zero[-1]] = 1.0
        return v
    s = singular_values(A)
    if A.shape[1] == len(s) and (len(s) == 0 or s[-1] > RANK_RTOL * max(s[0], 1e-300)):
        return None
    # Q e_N from the Householder reflectors; Q itself is never formed
    (h, tau), _, _ = scipy.linalg.qr(A.conj().T, pivoting=True, mode="raw")
    apply_q = scipy.linalg.get_lapack_funcs("unmqr" if np.iscomplexobj(h) else "ormqr", (h,))
    e = np.zeros((h.shape[0], 1), dtype=h.dtype)
    e[-1] = 1.0
    v = apply_q("L", "N", h[:, : tau.size], tau, e, 1)[0][:, 0]
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
    x = qr_least_squares(p.A_N, p.g_N, band=p.band)
    if family != "min-norm":
        kernel = _kernel_vector(p.A_N)
        if kernel is not None:
            scale = 1.0 if family == "kernel-unit" else float(p.N)
            x = x + scale * kernel
    eps = float(np.linalg.norm(p.A_N @ x - p.g_N))
    return ApproxSolution(f_N_coeffs=x, eps_norm=eps, iterations=0)


def solve_gmres(
    op: BoundedOperator,
    g,
    N_max: int,
    tol: float = 1e-10,
    steps=None,
):
    """Residual-minimizing Krylov iterates over K_n(A, g), n = 1..N_max.

    Returns `_krylov_iterates`' (solutions, basis) on K_n(A, g).  Stops
    at the first step whose residual norm reaches the absolute bound
    `tol`.  A step solves min ||H y - ||g|| e_1|| by pivoted QR where
    its Givens residual is within tol + RANK_RTOL ||g||; `f_N_coeffs`
    and `eps_norm` come from that solve, and the stopping test reads its
    residual.  A x - g lies in the spanned frame, so the Hessenberg
    least-squares value is the ambient residual norm while the Arnoldi
    vectors stay orthonormal.  Modified Gram-Schmidt loses that once
    Ritz values converge (max |U^H U - I| = 0.67 at N = 60 on
    mult-x:0.75,2, ROADMAP item 8), and the value then need not be the
    ambient norm.
    """
    gnorm = g.norm()
    if gnorm == 0:
        raise ValueError("gmres needs a nonzero datum")

    def least_squares(Hn, rhs):
        y = qr_least_squares(Hn, rhs)
        res = float(np.linalg.norm(Hn @ y - rhs))
        return y, res, res <= tol

    near = tol + RANK_RTOL * gnorm
    return _krylov_iterates(
        op, g, gnorm, N_max, steps, lambda qr: qr.residual <= near, least_squares
    )


def _krylov_iterates(op, seed, beta, N_max, steps, near, solve):
    """The Krylov sweep of both iterative solvers, on K_n(A, seed).

    Returns (solutions, basis), the basis being the Krylov frame the
    coordinates refer to.  The Arnoldi recursion runs one step per
    iterate and ends at the stop; the basis (of at most N_max + 1
    vectors) builds later vectors from the same recursion when they are
    asked for.  A progressive Givens QR of the Hessenberg matrix gives
    each step's residuals in O(n) per step.  `solve(H[:n+1, :n],
    beta e_1)` returns (y, eps_norm, stop), beta = ||seed||; it runs
    only at the steps in `steps` (None means every step), the last
    built step (the Krylov space exhausted, or N_max), and the steps
    where `near(rotations)` holds.  The solutions are those of the
    steps in `steps` up to the stop, plus the stopping or last step.
    """
    basis = KrylovBasis(op, seed, N_max + 1)
    H = basis.H
    wanted = range(1, N_max + 1) if steps is None else set(steps)
    rotations = _GivensQR(beta, N_max)
    sols = []
    for n in range(1, N_max + 1):
        last = not basis.step()
        rotations.push(H)
        if not (n in wanted or last or near(rotations)):
            continue
        rhs = np.zeros(n + 1, dtype=complex)
        rhs[0] = beta
        y, eps, stop = solve(H[: n + 1, :n], rhs)
        if n in wanted or last or stop:
            sols.append(ApproxSolution(f_N_coeffs=y, eps_norm=eps, iterations=n))
        if stop or last:
            break
    return sols, basis


class _GivensQR:
    """Progressive Givens QR of a Hessenberg matrix, one column at a time.

    Rotation n zeroes the subdiagonal entry of column n against the
    diagonal entry r_n that the earlier rotations leave there, and the
    residual min ||H[:n+1, :n] y - beta e_1|| shrinks by the modulus of
    its sine.  r_n is the dot product of column n with one row of the
    accumulated rotations, updated in O(n) per step (Saad & Schultz,
    SIAM J. Sci. Stat. Comput. 7, 1986).  The Galerkin (FOM) residual
    of the same step is that residual over the rotation's cosine
    (Brown, SIAM J. Sci. Stat. Comput. 12, 1991).
    """

    def __init__(self, beta: float, m: int):
        self.row = np.zeros(m + 1, dtype=complex)  # row n of the rotations so far
        self.row[0] = 1.0
        self.n = 0
        self.residual = float(beta)
        self.cosine = 1.0

    def push(self, H: np.ndarray) -> float:
        """Rotate the next column of H in; return the residual of its step."""
        n, row = self.n, self.row
        r = complex(row[: n + 1] @ H[: n + 1, n])
        b = complex(H[n + 1, n])
        rho = math.hypot(abs(r), abs(b))
        if rho == 0.0:
            c, s = 1.0, 0.0
        elif r == 0:
            c, s = 0.0, b.conjugate() / abs(b)
        else:
            c, s = abs(r) / rho, (r / abs(r)) * b.conjugate() / rho
        row[: n + 1] *= -s.conjugate()
        row[n + 1] = c
        self.n = n + 1
        self.residual *= abs(s)
        self.cosine = c
        return self.residual

    @property
    def galerkin_residual(self) -> float:
        """|h_{n+1,n} y_n| of the Galerkin solve T_n y = beta e_1 at the
        last step taken; inf where T_n is singular."""
        return self.residual / self.cosine if self.cosine else math.inf


#: CG solves T_n densely where the Givens value of its Galerkin residual
#: is within this factor of the stopping floor.  That value and the
#: solved |h_{n+1,n} y_n| differed by at most 1.6e-12 of their size over
#: ~2,000 measured steps (mult-x up to N = 1000), so no step the solve
#: would stop at is skipped.
CG_FLOOR_MARGIN = 100.0


def solve_cg(
    op: BoundedOperator,
    g,
    N_max: int,
    f0=None,
    steps=None,
):
    """Conjugate-gradient iterates: the Galerkin solves on the Arnoldi basis.

    Requires a self-adjoint positive operator.  With r_0 = g - A f0,
    `_krylov_iterates` sweeps K_n(A, r_0), and iterate n solves
    T_n y = ||r_0|| e_1 for the leading n x n block T_n of the
    Hessenberg matrix and sets element = f0 + sum_k y_k u_k; this
    minimizes Phi[h] = Re<h, Ah> - 2 Re<h, g> over f0 + K_n.  A T_n
    that is not positive definite raises CapabilityError.  Stops once
    the residual norm |H[n, n-1] y_n| reaches 1e-15 max(||g||, 1); a
    vanishing r_0 gives one iteration-0 solution f0 and no basis.

    T_n is solved densely where the Givens value of that residual (the
    GMRES residual over the rotation's cosine) is within CG_FLOOR_MARGIN
    of the floor, and the stop reads the solved y.  The Hermitian parts
    of the T_n are the leading blocks of the last one, so one Cholesky
    factorization checks them all; only when it fails are the blocks
    scanned for the first T_n that is not positive definite.
    """
    if not (op.self_adjoint and op.positive):
        raise CapabilityError(
            f"conjugate gradients needs a self-adjoint positive operator; "
            f"{op.label} is not"
        )
    x0 = (0.0 * g) if f0 is None else f0
    r0 = g - op.apply(x0)
    rnorm0 = r0.norm()
    floor = 1e-15 * max(g.norm(), 1.0)
    if rnorm0 <= floor:
        sol = ApproxSolution(
            f_N_coeffs=np.zeros(0, dtype=complex), eps_norm=0.0, iterations=0, element=x0
        )
        return [sol], None

    def galerkin(Hn, rhs):
        T, b = Hn[:-1], rhs[:-1]
        try:
            y = np.linalg.solve(T, b)
        except np.linalg.LinAlgError:
            _check_positive(op, Hn, len(b))  # a singular T_n is not positive definite
            raise
        return y, float(np.linalg.norm(T @ y - b)), abs(Hn[-1, -1] * y[-1]) <= floor

    near = CG_FLOOR_MARGIN * floor
    sols, basis = _krylov_iterates(
        op, r0, rnorm0, N_max, steps, lambda qr: qr.galerkin_residual <= near, galerkin
    )
    _check_positive(op, basis.H, basis.done)
    for sol in sols:
        sol.element = x0 + lincomb(sol.f_N_coeffs, basis.elements(sol.iterations))
    return sols, basis


def _check_positive(op: BoundedOperator, H: np.ndarray, n: int):
    """Raise CapabilityError naming the first T_k, k <= n, whose Hermitian
    part has no Cholesky factor."""

    def positive(k):
        T = H[:k, :k]
        try:
            np.linalg.cholesky(0.5 * (T + T.conj().T))
        except np.linalg.LinAlgError:
            return False
        return True

    if positive(n):
        return
    k = next(k for k in range(1, n + 1) if not positive(k))
    raise CapabilityError(
        f"{op.label} is not positive on the Krylov space (T_{k} is "
        f"not positive definite)"
    )
