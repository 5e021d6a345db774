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
import scipy.sparse

from .core import CapabilityError
from .elements import CoordinateBlock, Func, Seq, element, inner_matrix, stack
from .operators import BoundedOperator

#: Relative tolerance below which a new Arnoldi direction, or what is left of
#: a new adversarial constraint, counts as zero.
BREAKDOWN_RTOL = 1e-12


@dataclass
class OrthonormalBasis:
    """An enumerable orthonormal family (1-indexed).

    `size` is None for unbounded families; finite families (Krylov,
    adversarial) report their length and refuse larger indices.  `has`
    says whether there is an n-th element; a Krylov family finds out by
    running its recursion (see KrylovBasis).
    Generated elements are memoized; the cache is plain and should not
    be shared across threads mid-population.

    `coordinates` is set on coordinate frames, whose n-th element is a
    single ambient coordinate (a Legendre degree or a sequence index).
    The coordinates of the first N elements fill one window of N, and
    coordinates(N) gives its first coordinate and each element's offset
    in it.  A frame's `block` and `place` come from them alone, with no
    element built.
    """

    label: str
    space: tuple
    generator: Callable[[int], object]
    size: Optional[int] = None
    coordinates: Optional[Callable[[int], tuple]] = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def has(self, n: int) -> bool:
        """Whether the family has an n-th element."""
        return self.size is None or n <= self.size

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

    def block(self, N: int, sparse: bool = False) -> CoordinateBlock:
        """The first N elements as a coordinate block.

        A coordinate frame's row n holds a single 1 at the n-th
        coordinate; `sparse` makes that an O(N) sparse selection, else
        it is dense with each element's coefficients contiguous.  Any
        other family stacks its elements.
        """
        if self.coordinates is None:
            return stack(self.elements(N))[0]
        lo, at = self.coordinates(N)
        if sparse:
            coords = scipy.sparse.csr_array(
                (np.ones(N, dtype=complex), at, np.arange(N + 1)), shape=(N, N)
            )
        else:  # laid out as the operators' kernels read it: coordinates down axis 0
            columns = np.zeros((N, N), dtype=complex)
            columns[at, np.arange(N)] = 1.0
            coords = columns.T
        return self._on_window(lo, coords)

    def combs(self, N: int, s: int) -> CoordinateBlock:
        """s comb probes on a coordinate frame's window of N coordinates:
        row r holds a 1 at every window coordinate congruent to r mod s.

        For an operator of frame band (kl, ku) and s = kl + ku + 1, the
        image coefficient at c' reads the s inputs c' - kl .. c' + ku.  Of
        those, probe c mod s holds a 1 at c alone, as the frame's row for
        c does, so its image there has the bits of the image of that row."""
        lo, _ = self.coordinates(N)
        columns = np.zeros((N, s), dtype=complex)
        columns[np.arange(N), np.arange(N) % s] = 1.0
        return self._on_window(lo, columns.T)

    def _on_window(self, lo: int, coords) -> CoordinateBlock:
        """The block of rows `coords` on the coordinate window from `lo`."""
        rows, N = coords.shape
        if self.space[0] == "func":
            return CoordinateBlock(self.space, coords, np.zeros((rows, 0), dtype=complex))
        return CoordinateBlock(self.space, coords, index=np.arange(lo, lo + N))

    def place(self, coeffs):
        """The combination of a coordinate frame's first len(coeffs)
        elements: each coefficient put at its element's coordinate.  The
        entries equal `lincomb`'s up to the sign of a zero."""
        lo, at = self.coordinates(len(coeffs))
        values = np.zeros(len(at), dtype=complex)
        values[at] = coeffs
        return element(self.space, lo, values)


def canonical_basis(domain: str = "nat") -> OrthonormalBasis:
    """Canonical sequence basis; Z-indexed enumeration is 0, +1, -1, +2, ..."""
    if domain == "nat":
        gen = lambda n: Seq.basis_vector(n, "nat")
        coordinates = lambda N: (1, np.arange(N))
    elif domain == "int":
        gen = lambda n: Seq.basis_vector(fourier_mode_number(n), "int")

        def coordinates(N):
            # the first N indices 0, +1, -1, ... fill [-((N - 1) // 2), N // 2]
            lo = -((N - 1) // 2)
            return lo, fourier_mode_number(np.arange(1, N + 1)) - lo

    else:
        raise ValueError(f"unknown sequence domain {domain!r}")
    return OrthonormalBasis(
        label=f"canonical[{domain}]",
        space=("seq", domain),
        generator=gen,
        coordinates=coordinates,
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
        coordinates=lambda N: (0, np.arange(N)),
    )


def fourier_mode_number(n):
    """Enumeration of Fourier modes: 1, 2, 3, 4, 5, ... -> 0, +1, -1, +2, -2, ...

    Takes an int or an integer array, elementwise.
    """
    return (n // 2) * (1 - 2 * (n % 2))


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


class KrylovBasis(OrthonormalBasis):
    """Modified Gram-Schmidt Arnoldi on g, Ag, A^2 g, ..., run on demand.

    The family of at most `size` Arnoldi vectors of span{g, Ag, ...}
    starts with one vector; `step()` runs one step of the recursion, and
    asking for an element, or whether there is one (`has`), steps until
    it is built.  `H` is allocated with shape (size, size-1) for the
    size asked for, and `done` steps have filled its leading columns.
    Step k computes column k of H and vector k+1, satisfying
    A U_k = U_{k+1} H[:k+1, :k] columnwise; `hessenberg` is that
    leading block, of shape (m, m-1) with m vectors.  On breakdown at
    step k the recursion is `exhausted`: `size` drops to the k vectors
    built, and the near-zero trailing subdiagonal entry H[k, k-1] is
    kept (shape (k+1, k)), so least-squares consumers can still use the
    final column and it certifies the breakdown.

    The orthogonalization runs on coefficient windows, Legendre
    coefficients from degree 0 or a sequence's stored indices, with the
    arithmetic of `inner`, `-` and `norm` on the elements: the same
    overlap for each inner product, the same window for each difference
    and the same bits.  Only the operator sees elements, one per step.
    Data or images holding oscillatory atoms raise CapabilityError.

    w is allocated once per step, in fresh zeros on the union of the
    image's window and the last vector's, which holds every earlier
    window: the window the differences would grow it to.  Its window so
    far, [rlo, rhi), is the image's grown by each window visited, and
    each <v, w> runs over v's overlap with it, as `inner` does; a window
    inside it overlaps whole, with no clipping.  Each difference is
    subtracted in place.  Each entry is kept as the numpy scalar
    `vdot(v, w) + 0j`, with no round trip through a Python complex: IEEE
    addition commutes, so it has the bits of `0j + vdot(v, w)`, the sum
    `inner` forms, signed zeros included.

    Each window keeps the span [first, last + 1) of its nonzero
    coefficients, and w carries a span holding all of its own: the
    image's, grown by the span of each term subtracted.  A term whose
    span misses w's is skipped, its H entry stored as 0j.  That is
    exact for finite coefficients: every product in <v, w> has a zero
    factor, so 0j + the sum is +0j; and w - 0j v is w bit for bit,
    since the sum into fresh zeros turns each -0.0 into +0.0, and no
    later difference makes a new -0.0.  The window so far grows as
    without the skip.  On the shifts from a basis vector this leaves
    O(1) terms per step instead of k + 1.
    """

    def __init__(self, op: BoundedOperator, g, size: int):
        if size < 1:
            raise ValueError(f"need N >= 1, got {size}")
        gnorm = g.norm()
        if gnorm == 0:
            raise ValueError("Krylov construction requires a nonzero seed")
        lo, v = _window(op, g)
        v = (1.0 / gnorm) * v
        vectors = [element(g.space, lo, v)]
        # the generator holds the list, not the basis: no reference cycle
        # keeps a dropped basis and its H alive until a garbage collection
        super().__init__(
            label=f"krylov[{op.label}]",
            space=op.space,
            generator=lambda n: vectors[n - 1],
            size=size,
        )
        self.op = op
        self._windows = [(lo, lo + len(v), v, *_span(lo, v))]
        self.vectors = vectors
        self.H = np.zeros((size, size - 1), dtype=complex)
        self.done = 0
        self.exhausted = False

    @property
    def hessenberg(self) -> np.ndarray:
        """The leading block of H the steps so far have filled."""
        return self.H[: self.done + 1, : self.done]

    def has(self, n: int) -> bool:
        """Whether the family has an n-th element: steps until it holds
        n vectors, its last vector or its breakdown."""
        while len(self.vectors) < min(n, self.size):
            self.step()
        return n <= self.size

    def element(self, n: int):
        self.has(n)
        return super().element(n)

    def step(self) -> bool:
        """Run the next step: one column of H and, unless it breaks down,
        one more vector; a breakdown lowers `size` to the vectors built.
        Returns whether another step can follow."""
        op, windows, vectors, k = self.op, self._windows, self.vectors, self.done
        image = op.apply(vectors[k])
        pre = image.norm()
        rlo, r = _window(op, image)
        rhi = rlo + len(r)
        # [slo, shi) holds every nonzero coefficient of w
        slo, shi = _span(rlo, r)
        # w on the union of every window; `image` keeps its coefficients
        lo = min(rlo, windows[-1][0])
        hi = max(rhi, windows[-1][1])
        w = np.zeros(hi - lo, dtype=complex)
        w[rlo - lo : rhi - lo] += r
        column = []
        vdot = np.vdot  # bound per step, so a patched np.vdot is seen
        for vlo, vhi, v, nlo, nhi in windows:
            if nlo < shi and slo < nhi:
                ws = w[vlo - lo : vhi - lo]
                if rlo <= vlo and vhi <= rhi:
                    hik = vdot(v, ws) + 0j
                else:  # over the overlap, as Seq.inner / Func.inner sum it
                    start = vlo if vlo > rlo else rlo
                    stop = vhi if vhi < rhi else rhi
                    hik = vdot(v[start - vlo : stop - vlo], w[start - lo : stop - lo]) + 0j
                ws -= hik * v
                if nlo < slo:
                    slo = nlo
                if nhi > shi:
                    shi = nhi
            else:
                hik = 0j
            column.append(hik)
            # [rlo, rhi) is w's window so far, as Func/Seq.__add__ grow it
            if vlo < rlo:
                rlo = vlo
            if vhi > rhi:
                rhi = vhi
        H = self.H
        H[: k + 1, k] = column
        hn = float(np.linalg.norm(w))
        H[k + 1, k] = hn
        self.done = k + 1
        if hn <= BREAKDOWN_RTOL * max(pre, 1e-300):
            self.exhausted = True
            self.size = k + 1
            return False
        v = (1.0 / hn) * w
        windows.append((lo, hi, v, *_span(lo, v)))
        vectors.append(element(image.space, lo, v))
        return k + 2 < self.size


def arnoldi(op: BoundedOperator, g, steps: int):
    """`steps` steps of the Arnoldi recursion (see `KrylovBasis`) on g.

    Returns (vectors, hessenberg, exhausted).  Without breakdown there
    are steps+1 orthonormal vectors and hessenberg has shape
    (steps+1, steps); on breakdown at step m there are m vectors and
    the shape is (m+1, m).
    """
    basis = krylov_basis(op, g, steps + 1)
    return basis.vectors, basis.hessenberg, basis.exhausted


def _window(op: BoundedOperator, e):
    """(origin, coefficients) of an atom-free element: a sequence's stored
    window, or a function's Legendre coefficients from degree 0."""
    if isinstance(e, Seq):
        return e.origin, e.values
    if any(c != 0 for c in e.osc.values()):
        raise CapabilityError(
            f"Krylov bases of {op.label} need atom-free data: a Krylov vector "
            "holding oscillatory atoms x^m e^{iwx} piles up atoms of growing m "
            "whose coefficients cancel (see ROADMAP.md, open item 4)"
        )
    return 0, e.leg


def _span(lo, values):
    """[first, last + 1) of the nonzero coefficients of the window at `lo`;
    (lo, lo) when there are none."""
    nonzero = np.flatnonzero(values)
    if not len(nonzero):
        return lo, lo
    return lo + int(nonzero[0]), lo + int(nonzero[-1]) + 1


def krylov_basis(op: BoundedOperator, g, N: int) -> KrylovBasis:
    """First N Arnoldi vectors of span{g, Ag, A^2 g, ...}, all built.

    If the recursion breaks down at step m < N the basis has m elements
    and `exhausted` is set.  The solvers construct the same family, with
    one vector built, and step it as they go.
    """
    basis = KrylovBasis(op, g, N)
    basis.has(N)
    return basis


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


def _working_family(op: BoundedOperator) -> OrthonormalBasis:
    """Ambient orthonormal frame used for finite-horizon constructions."""
    if op.space[0] == "seq":
        return canonical_basis(op.space[1])
    return legendre_basis(op.space[1])


def adversarial_test_basis(
    op: BoundedOperator,
    trial: OrthonormalBasis,
    n_max: int,
) -> OrthonormalBasis:
    """Test family making every truncation of op against `trial` singular.

    Inductively picks v_N of unit norm orthogonal to A u_1, ..., A u_N
    and to v_1, ..., v_{N-1}, so row N of each compression vanishes.
    It works on the first 4 n_max elements of an ambient orthonormal
    frame, where orthonormal rows Q span the constraints so far: A u_N
    joins Q after two classical Gram-Schmidt passes, unless it lies in
    their span, and then v_N joins it from the frame vector of least
    leverage (column norm of Q).  With at most 2N - 1 rows in 4 n_max
    columns that is below 1/2.  Where it is 0, as past a banded
    operator's images, v_N is that frame vector and row N exact zeros.
    If that column of Q is exact zeros (not just of squares that
    underflow), the passes would return the frame vector bit for bit,
    so it joins Q without them.
    The images come from one block application, their frame
    coordinates from the frame's block, and v_N is placed at the frame's
    coordinates: no frame element is built.
    """
    frame = _working_family(op)
    # coordinates of A u_j in the working frame
    images = op.apply_block(trial.block(n_max))
    width = 4 * n_max
    image_coords = inner_matrix(frame.block(width, sparse=True), images).T
    Q = np.zeros((2 * n_max, width), dtype=complex)
    leverage = np.zeros(width)  # squared column norms of Q[:rows]
    rows, picked = 0, []

    def join(c):
        nonlocal rows
        r = c
        for _ in range(2):  # "twice is enough"
            r = r - np.conj(Q[:rows] @ np.conj(r)) @ Q[:rows]
        norm = np.linalg.norm(r)
        if norm > BREAKDOWN_RTOL * np.linalg.norm(c):
            Q[rows] = r / norm
            leverage[:] += np.abs(Q[rows]) ** 2
            rows += 1

    for image in image_coords:
        join(image)
        picked.append(rows)
        j = int(np.argmin(leverage))
        if Q[:rows, j].any():
            join(np.eye(1, width, j, dtype=complex)[0])
        else:
            # both passes would return e_j bit for bit: Q[:rows] e_j is zeros
            Q[rows, j] = 1.0
            leverage[j] = 1.0
            rows += 1
    test_coords = Q[picked]  # a copy: no row keeps Q alive
    return OrthonormalBasis(
        label=f"adversarial[{op.label};{trial.label}]",
        space=op.space,
        generator=lambda n: frame.place(test_coords[n - 1]),
        size=n_max,
    )
