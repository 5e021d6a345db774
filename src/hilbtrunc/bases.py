"""Trial and test orthonormal systems.

Canonical sequence bases, shifted Legendre and complex Fourier families,
Krylov (Arnoldi) bases, the exact singular bases of an operator, and the
constructive test basis that makes every truncation singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .elements import Func, Seq, inner, lincomb
from .operators import BoundedOperator

#: Relative tolerance below which a new Arnoldi direction counts as zero.
BREAKDOWN_RTOL = 1e-12


@dataclass
class OrthonormalBasis:
    """An enumerable orthonormal family (1-indexed).

    `size` is None for unbounded families; finite families (Krylov,
    adversarial) report their length and refuse larger indices.
    Generated elements are memoized; the cache is plain and should not
    be shared across threads mid-population.
    """

    label: str
    space: tuple
    generator: Callable[[int], object]
    size: Optional[int] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def element(self, n: int):
        if n < 1:
            raise ValueError(f"basis indices start at 1, got {n}")
        if self.size is not None and n > self.size:
            raise IndexError(
                f"basis {self.label!r} has only {self.size} elements (asked for {n})"
            )
        if n not in self._cache:
            self._cache[n] = self.generator(n)
        return self._cache[n]

    def elements(self, n: int):
        return [self.element(k) for k in range(1, n + 1)]


@dataclass
class KrylovBasis(OrthonormalBasis):
    """Arnoldi vectors plus the rectangular Hessenberg matrix they satisfy.

    With m = size vectors, `hessenberg` has shape (m, m-1) and
    A U_{m-1} = U_m H holds columnwise; on exhaustion the shape is
    (m+1, m) instead, the near-zero trailing row certifying breakdown.
    """

    hessenberg: np.ndarray = None
    exhausted: bool = False


def canonical_basis(domain: str = "nat") -> OrthonormalBasis:
    """Canonical sequence basis; Z-indexed enumeration is 0, +1, -1, +2, ..."""
    if domain == "nat":
        gen = lambda n: Seq.basis_vector(n, "nat")
    elif domain == "int":
        def gen(n):
            k = n // 2 if n % 2 == 0 else -(n - 1) // 2
            return Seq.basis_vector(k, "int")
    else:
        raise ValueError(f"unknown sequence domain {domain!r}")
    return OrthonormalBasis(
        label=f"canonical[{domain}]",
        space=("seq", domain),
        generator=gen,
    )


def legendre_basis(interval) -> OrthonormalBasis:
    """The L2-normalized shifted Legendre polynomials on [a, b].

    The n-th element is the degree-(n-1) polynomial, held in coefficient
    form and evaluated by the stable three-term recurrence.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"degenerate interval [{a}, {b}]")

    def gen(n):
        coeffs = np.zeros(n, dtype=complex)
        coeffs[n - 1] = 1.0
        return Func.from_leg((a, b), coeffs)

    return OrthonormalBasis(
        label=f"legendre[{a:g},{b:g}]",
        space=("func", (a, b)),
        generator=gen,
    )


def fourier_mode_number(n: int) -> int:
    """Enumeration of Fourier modes: 1, 2, 3, 4, 5, ... -> 0, +1, -1, +2, -2, ..."""
    return n // 2 if n % 2 == 0 else -(n - 1) // 2


def fourier_basis(interval) -> OrthonormalBasis:
    """Complex Fourier modes (b-a)^(-1/2) e^{2 pi i k (x-a)/(b-a)}.

    Enumerated symmetrically (k = 0, +1, -1, ...) so that real functions
    carry conjugate-paired coefficients.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    length = b - a

    def gen(n):
        k = fourier_mode_number(n)
        if k == 0:
            return Func.from_leg((a, b), [1.0])  # the constant is the degree-0 element
        w = 2.0 * math.pi * k / length
        coeff = np.exp(-1j * w * a) / math.sqrt(length)
        return Func.from_osc((a, b), {(0, w): coeff})

    return OrthonormalBasis(
        label=f"fourier[{a:g},{b:g}]",
        space=("func", (a, b)),
        generator=gen,
    )


def arnoldi(op: BoundedOperator, g, steps: int, breakdown_rtol: float = BREAKDOWN_RTOL):
    """Modified Gram-Schmidt Arnoldi on g, Ag, A^2 g, ...

    Returns (vectors, hessenberg, exhausted).  Without breakdown there
    are steps+1 orthonormal vectors and hessenberg has shape
    (steps+1, steps), satisfying A U_m = U_{m+1} H columnwise.  On
    breakdown at step m the recursion stops with m vectors; hessenberg
    keeps shape (m+1, m) with a near-zero trailing subdiagonal entry so
    least-squares consumers can still use the final column.
    """
    gnorm = g.norm()
    if gnorm == 0:
        raise ValueError("Krylov construction requires a nonzero seed")
    vectors = [(1.0 / gnorm) * g]
    H = np.zeros((steps + 1, steps), dtype=complex)
    exhausted = False
    done = 0
    for k in range(steps):
        w = op.apply(vectors[k])
        pre = w.norm()
        for i in range(k + 1):
            hik = inner(vectors[i], w)
            H[i, k] = hik
            w = w - hik * vectors[i]
        hn = w.norm()
        H[k + 1, k] = hn
        done = k + 1
        if hn <= breakdown_rtol * max(pre, 1e-300):
            exhausted = True
            break
        vectors.append((1.0 / hn) * w)
    return vectors, H[: done + 1, :done], exhausted


def krylov_basis(op: BoundedOperator, g, N: int) -> KrylovBasis:
    """First N Arnoldi vectors of span{g, Ag, A^2 g, ...}.

    If the recursion breaks down at step m < N the basis has m elements
    and `exhausted` is set.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    vectors, H, exhausted = arnoldi(op, g, N - 1)
    return KrylovBasis(
        label=f"krylov[{op.label}]",
        space=op.space,
        generator=lambda n: vectors[n - 1],
        size=len(vectors),
        hessenberg=H,
        exhausted=exhausted,
    )


def svd_bases(op: BoundedOperator):
    """Trial/test pair from the operator's exact singular decomposition.

    Compressing with these bases yields diag(sigma_1, ..., sigma_N).
    """
    triple = op.exact_svd()
    trial = OrthonormalBasis(
        label=f"svd-right[{op.label}]",
        space=op.space,
        generator=triple.right,
    )
    test = OrthonormalBasis(
        label=f"svd-left[{op.label}]",
        space=op.space,
        generator=triple.left,
    )
    return trial, test


def _working_family(op: BoundedOperator, trial: OrthonormalBasis) -> OrthonormalBasis:
    """Ambient orthonormal frame used for finite-horizon constructions."""
    if op.space[0] == "seq":
        return canonical_basis(op.space[1])
    return legendre_basis(op.space[1])


def adversarial_test_basis(
    op: BoundedOperator,
    trial: OrthonormalBasis,
    n_max: int,
    horizon: int,
) -> OrthonormalBasis:
    """Test family making every truncation of op against `trial` singular.

    Inductively picks v_N of unit norm orthogonal to A u_1, ..., A u_N
    and to v_1, ..., v_{N-1}, so row N of each compression vanishes.
    The construction runs on a `horizon`-dimensional window of an
    ambient orthonormal frame; a null vector of the stacked constraint
    matrix is extracted via complete QR.
    """
    if horizon < 2 * n_max:
        raise ValueError(
            f"horizon {horizon} too small: need at least 2*n_max = {2 * n_max}"
        )
    frame = _working_family(op, trial)
    frame_elems = frame.elements(horizon)
    # coordinates of A u_j in the working frame
    image_coords = np.empty((n_max, horizon), dtype=complex)
    for j in range(n_max):
        auj = op.apply(trial.element(j + 1))
        image_coords[j] = [inner(w, auj) for w in frame_elems]
    test_coords = []
    for N in range(1, n_max + 1):
        rows = [image_coords[j] for j in range(N)] + test_coords
        constraints = np.conj(np.array(rows))
        rank = len(rows)  # < horizon by the precondition
        if rank >= horizon:
            raise ValueError("constraint matrix has full row rank on the horizon")
        q, _ = np.linalg.qr(constraints.conj().T, mode="complete")
        candidates = q[:, rank:]
        residuals = np.linalg.norm(constraints @ candidates, axis=0)
        v = candidates[:, int(np.argmin(residuals))]
        # canonical phase: largest-modulus coordinate made real positive
        pivot = v[int(np.argmax(np.abs(v)))]
        v = v * (np.conj(pivot) / abs(pivot))
        v = v / np.linalg.norm(v)
        test_coords.append(v)

    def gen(n):
        return lincomb(test_coords[n - 1], frame_elems)

    return OrthonormalBasis(
        label=f"adversarial[{op.label};{trial.label}]",
        space=op.space,
        generator=gen,
        size=n_max,
    )
