"""Exact arithmetic for ambient Hilbert-space elements.

Both representations store a window of coefficients, `values` at the
coordinates `origin`, `origin` + 1, ...:

* `Seq` -- finitely supported vectors in the sequence space over the
  naturals (indices >= 1) or the integers.

* `Func` -- functions on an interval [a, b]: the window holds the
  coefficients of the L2-normalized shifted Legendre polynomials from
  degree 0, and a sparse combination of oscillatory terms
  x^m e^{i w x} (w != 0) is added to it.  The
  class is closed under the model operators (integration from a,
  multiplication by x).  All inner products have closed forms.  The
  Legendre x oscillatory moments come from the Fourier transform of a
  Legendre polynomial, 2 i^k j_k(z) (DLMF 18.17(v)), and the Legendre
  three-term recurrence: each is computed once, in a memoized block of
  consecutive degrees, so every caller sees the same value.

A coordinate block stacks a list of elements of one space as the rows
of coefficient matrices over a shared dictionary, so that all inner
products between two lists are one matrix product and a linear
combination is one row reduction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np
import scipy.sparse
from scipy.special import jv

from .core import SpaceMismatchError

# Legendre x oscillatory moments are memoized in blocks of this many
# consecutive degrees; the bounded memos hold read-only arrays.
_BLOCK = 32
_MOMENT_MEMO = 1 << 15
_MAP_MEMO = 256
_IOSC_MEMO = 1 << 14

_TINY = 1e-280  # the smallest |j_k(z)| kept to full precision

_SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# normalized shifted Legendre machinery
# ---------------------------------------------------------------------------

def _down(values: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """`values`, one per row of `coeffs`, shaped to act down its axis 0."""
    return values if coeffs.ndim == 1 else values[:, None]


def mult_x_leg(interval, coeffs: np.ndarray) -> np.ndarray:
    """Legendre coefficients of x*f given those of f (exact recurrence).

    A 2-D `coeffs` holds one expansion per column, degrees down axis 0.
    """
    a, b = interval
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    n = len(coeffs)
    if n == 0:
        return np.zeros(coeffs.shape, dtype=complex)
    out = np.zeros((n + 1,) + coeffs.shape[1:], dtype=complex)
    idx = _down(np.arange(n, dtype=float), coeffs)
    up = (idx + 1.0) / np.sqrt((2 * idx + 1) * (2 * idx + 3))
    out[:n] += c * coeffs
    out[1 : n + 1] += h * up * coeffs
    if n > 1:
        j = idx[1:]
        down = j / np.sqrt((2 * j - 1) * (2 * j + 1))
        out[: n - 1] += h * down * coeffs[1:]
    return out


def integrate_leg01(coeffs: np.ndarray) -> np.ndarray:
    """Legendre coefficients on [0, 1] of x -> integral_0^x f, exact.

    Uses the antiderivative identity for Legendre polynomials; the
    result of integrating a degree-d expansion has degree d+1.  A 2-D
    `coeffs` holds one expansion per column, degrees down axis 0.
    """
    n = len(coeffs)
    out = np.zeros((n + 1,) + coeffs.shape[1:], dtype=complex)
    if n == 0:
        return out
    out[0] += 0.5 * coeffs[0]
    out[1] += coeffs[0] / (2.0 * _SQRT3)
    if n > 1:
        j = _down(np.arange(1, n, dtype=float), coeffs)
        up = 1.0 / (2.0 * np.sqrt((2 * j + 1) * (2 * j + 3)))
        down = 1.0 / (2.0 * np.sqrt((2 * j + 1) * (2 * j - 1)))
        out[2 : n + 1] += up * coeffs[1:]
        out[0 : n - 1] -= down * coeffs[1:]
    return out


def monomial_leg(interval, m: int) -> np.ndarray:
    """Legendre coefficients of x^m on `interval` (exact and stable)."""
    a, b = interval
    vec = np.array([math.sqrt(b - a)], dtype=complex)
    for _ in range(m):
        vec = mult_x_leg(interval, vec)
    return vec


# ---------------------------------------------------------------------------
# oscillatory primitives x^m e^{iwx}
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_IOSC_MEMO)
def iosc(interval, m: int, w: float) -> complex:
    """Exact integral of x^m e^{iwx} over the interval (memoized): sqrt(b - a)
    times the degree-0 moment, its one row of `_moment_map` summed in Python."""
    if w < 0.0:  # x^m is real: the integral at -w is the conjugate of that at w
        return iosc(interval, m, -w).conjugate()
    a, b = interval
    row = _moment_map(interval, 0, 0, m)[0].tolist()
    bessel = _spherical_bessel(0, m, 0.5 * (b - a) * w)
    return math.sqrt(b - a) * cmath.exp(0.5j * (a + b) * w) * sum(r * v for r, v in zip(row, bessel))


def osc_antiderivative(m: int, w: float):
    """Coefficients c with integral_0^x y^m e^{iwy} dy = sum c_j x^j e^{iwx} - c_0."""
    iw = 1j * w
    c = np.empty(m + 1, dtype=complex)
    c[m] = 1.0 / iw
    for j in range(m - 1, -1, -1):
        c[j] = -(j + 1) * c[j + 1] / iw
    return c


def _spherical_bessel(lo: int, hi: int, z: float) -> list:
    """[j_k(z) for k = lo..hi], z >= 0, downward by j_{k-1} + j_{k+1} =
    (2k+1)/z j_k (past k = z, j_k is the minimal solution) from scipy's jv
    at the top orders not under _TINY; a run from k = 0 is rescaled to the
    larger of j_0 = sin z / z and j_1 = (j_0 - cos z) / z (jv is off by
    about k |log z| ulp at small z)."""
    if z == 0.0:
        return [float(k == 0) for k in range(lo, hi + 1)]
    out = [0.0] * (hi - lo + 2)
    scale = math.sqrt(0.5 * math.pi / z)

    def j(k):
        return scale * float(jv(k + 0.5, z))

    top = hi
    while top > lo and abs(j(top)) < _TINY:  # past z j_k decreases
        top -= 1
    out[top - lo], out[top + 1 - lo] = j(top), j(top + 1)
    for k in range(top, lo, -1):
        out[k - 1 - lo] = (2 * k + 1) / z * out[k - lo] - out[k + 1 - lo]
    if lo == 0:
        j0 = math.sin(z) / z
        exact = (j0, (j0 - math.cos(z)) / z)
        i = int(hi > 0 and abs(out[1]) > abs(out[0]))
        out = [exact[i] / out[i] * v for v in out]
    return out[:-1]


@lru_cache(maxsize=_MAP_MEMO)
def _moment_map(interval, lo: int, hi: int, m: int) -> np.ndarray:
    """C with [int L_k x^m e^{iwx} dx for k = lo..hi] = e^{iwc} C [j_l(wh) for
    l = max(lo - m, 0)..hi + m], c the centre and h the half-width of [a, b].

    At m = 0, C is diagonal: sqrt((2l+1)(b-a)) i^l (DLMF 18.17(v)).  Each
    factor x is one step x L_k = c L_k + h (beta_{k+1} L_{k+1} + beta_k
    L_{k-1}), beta_k = k / sqrt(4k^2 - 1), the recurrence of `mult_x_leg`,
    on the rows; rows for degrees below 0 are zero.  C does not depend on w.
    """
    a, b = interval
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    col = np.arange(max(lo - m, 0), hi + m + 1)
    rows = np.eye(hi - lo + 2 * m + 1, len(col), min(lo - m, 0)) * (
        np.sqrt((2.0 * col + 1.0) * (b - a)) * 1j ** (col % 4))
    k = np.maximum(np.arange(lo - m, hi + m + 1), 0.0)[:, None]
    beta = k / np.sqrt(np.abs(4.0 * k * k - 1.0))
    for _ in range(m):
        rows = c * rows[1:-1] + h * (beta[2:] * rows[2:] + beta[1:-1] * rows[:-2])
        beta = beta[1:-1]
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=_MOMENT_MEMO)
def _moment_block(interval, block: int, m: int, w: float) -> np.ndarray:
    """Integrals of L_k(x) x^m e^{iwx} for k in block * _BLOCK + [0, _BLOCK)."""
    if w < 0.0:  # L_k x^m is real: the moments at -w are the conjugates of those at w
        out = _moment_block(interval, block, m, -w).conj()
    else:
        a, b = interval
        lo, hi = _BLOCK * block, _BLOCK * block + _BLOCK - 1
        bessel = _spherical_bessel(max(lo - m, 0), hi + m, 0.5 * (b - a) * w)
        out = cmath.exp(0.5j * (a + b) * w) * (_moment_map(interval, lo, hi, m) @ bessel)
    out.flags.writeable = False
    return out


def leg_osc_integral(interval, n: int, m: int, w: float) -> np.ndarray:
    """Integrals of L_k(x) * x^m e^{iwx} over the interval for k = 0..n.

    L_k is orthonormal.  The result is read-only, and entry k does not
    depend on n.
    """
    if n < _BLOCK:
        return _moment_block(interval, 0, m, w)[: n + 1]
    blocks = [_moment_block(interval, blk, m, w) for blk in range(n // _BLOCK + 1)]
    out = np.concatenate(blocks)[: n + 1]
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# function-space elements
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Func:
    """Function on an interval: Legendre part + oscillatory terms.

    `values[n]` multiplies the orthonormal shifted Legendre polynomial
    of degree n: a `Seq` window whose `origin` is always 0.  `osc[(m, w)]`
    multiplies x^m e^{iwx} with w != 0.
    """

    interval: tuple
    values: np.ndarray
    osc: dict

    origin = 0

    @staticmethod
    def zero(interval) -> "Func":
        return Func(interval, np.zeros(0, dtype=complex), {})

    @staticmethod
    def from_leg(interval, coeffs) -> "Func":
        return Func(interval, np.asarray(coeffs, dtype=complex), {})

    @staticmethod
    def from_poly(interval, monomial_coeffs) -> "Func":
        """Polynomial sum c_m x^m, converted exactly to Legendre form."""
        out = np.zeros(len(monomial_coeffs), dtype=complex)
        for m, cm in enumerate(monomial_coeffs):
            if cm == 0:
                continue
            vec = monomial_leg(interval, m)  # m + 1 <= len(out) entries
            out[: len(vec)] += cm * vec
        return Func(interval, out, {})

    @staticmethod
    def from_osc(interval, terms: dict) -> "Func":
        return Func(interval, np.zeros(0, dtype=complex), dict(terms))

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)

    @property
    def space(self) -> tuple:
        return ("func", self.interval)

    def _check(self, other: "Func"):
        if self.interval != other.interval:
            raise SpaceMismatchError(
                f"interval mismatch: {self.interval} vs {other.interval}"
            )

    def __add__(self, other: "Func") -> "Func":
        self._check(other)
        _, values = _window_sum(self, other)
        osc = dict(self.osc)
        for key, c in other.osc.items():
            osc[key] = osc.get(key, 0.0) + c
        return Func(self.interval, values, osc)

    def __sub__(self, other: "Func") -> "Func":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "Func":
        return Func(
            self.interval,
            scalar * self.values,
            {k: scalar * c for k, c in self.osc.items()},
        )

    def inner(self, other: "Func") -> complex:
        """L2 inner product, antilinear in self.

        The Legendre parts meet in one vdot.  The oscillatory terms are
        three Gram products, as in `inner_matrix`: the moments of the
        Legendre degrees against each atom, both ways, and one iosc per
        distinct pair of m1 + m2 and w2 - w1 between the atoms.
        """
        self._check(other)
        total = _window_inner(self, other)
        left = [(key, c) for key, c in self.osc.items() if c != 0]
        right = [(key, c) for key, c in other.osc.items() if c != 0]
        if not (left or right):
            return complex(total)
        atoms1, c1 = zip(*left) if left else ((), ())
        atoms2, c2 = zip(*right) if right else ((), ())
        c1, c2 = np.conj(c1), np.array(c2)
        if right and len(self.values):
            total += (self.values.conj() @ _moments(self.interval, atoms2, len(self.values))) @ c2
        if left and len(other.values):
            total += c1 @ (other.values @ _moments(self.interval, atoms1, len(other.values)).conj())
        if left and right:
            total += c1 @ _atom_gram(self.interval, atoms1, atoms2) @ c2
        return complex(total)

    def norm(self) -> float:
        if not self.osc:
            return float(np.linalg.norm(self.values))
        val = self.inner(self)
        return math.sqrt(max(val.real, 0.0))


# ---------------------------------------------------------------------------
# sequence-space elements
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Seq:
    """Finitely supported sequence over the naturals ("nat") or integers ("int")."""

    domain: str
    origin: int
    values: np.ndarray

    osc = MappingProxyType({})  # no oscillatory atoms

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.domain not in ("nat", "int"):
            raise ValueError(f"unknown sequence domain {self.domain!r}")
        if self.domain == "nat" and self.origin < 1:
            raise ValueError("nat-indexed sequences start at index >= 1")

    @property
    def space(self) -> tuple:
        return ("seq", self.domain)

    @staticmethod
    def zero(domain="nat") -> "Seq":
        return Seq(domain, 1 if domain == "nat" else 0, np.zeros(0, dtype=complex))

    @staticmethod
    def basis_vector(index: int, domain="nat") -> "Seq":
        return Seq(domain, index, np.array([1.0], dtype=complex))

    def _check(self, other: "Seq"):
        if self.domain != other.domain:
            raise SpaceMismatchError(
                f"sequence domain mismatch: {self.domain} vs {other.domain}"
            )

    def component(self, index: int) -> complex:
        k = index - self.origin
        if 0 <= k < len(self.values):
            return complex(self.values[k])
        return 0.0

    def __add__(self, other: "Seq") -> "Seq":
        self._check(other)
        return Seq(self.domain, *_window_sum(self, other))

    def __sub__(self, other: "Seq") -> "Seq":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "Seq":
        return Seq(self.domain, self.origin, scalar * self.values)

    def inner(self, other: "Seq") -> complex:
        self._check(other)
        return complex(_window_inner(self, other))

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def mapped(self, fn) -> "Seq":
        """Multiply each component by fn(index)."""
        idx = np.arange(self.origin, self.origin + len(self.values))
        return Seq(self.domain, self.origin, map_by_index(self.values, idx, fn))

    def shifted(self, step: int) -> "Seq":
        """Shift indices by `step`; nat-indexed content falling below 1 is dropped."""
        origin = self.origin + step
        values = self.values
        if self.domain == "nat" and origin < 1:
            cut = 1 - origin
            values = values[cut:]
            origin = 1
        return Seq(self.domain, origin, values.copy())


def map_by_index(values: np.ndarray, index: np.ndarray, fn) -> np.ndarray:
    """values[k] * fn(index[k]): sequence coefficients at `index`, or a
    2-D block of them with one column per element, indices down axis 0."""
    return values * _down(fn(index), values)


def _window_sum(u, v):
    """(origin, values) of the sum of two coefficient windows: each added
    into zeros on the union of the two.  An empty window adds no extent:
    the sum is a copy of the other."""
    if not len(u.values):
        return v.origin, v.values.copy()
    if not len(v.values):
        return u.origin, u.values.copy()
    lo = min(u.origin, v.origin)
    hi = max(u.origin + len(u.values), v.origin + len(v.values))
    out = np.zeros(hi - lo, dtype=complex)
    out[u.origin - lo : u.origin - lo + len(u.values)] += u.values
    out[v.origin - lo : v.origin - lo + len(v.values)] += v.values
    return lo, out


def _window_inner(u, v):
    """<u, v> of two coefficient windows: one vdot over their overlap,
    added to 0j."""
    lo = max(u.origin, v.origin)
    hi = min(u.origin + len(u.values), v.origin + len(v.values))
    if hi <= lo:
        return 0j
    a = u.values[lo - u.origin : hi - u.origin]
    b = v.values[lo - v.origin : hi - v.origin]
    return 0j + np.vdot(a, b)


# ---------------------------------------------------------------------------
# generic dispatch helpers
# ---------------------------------------------------------------------------

def inner(u, v) -> complex:
    """Ambient inner product, antilinear in the first argument."""
    if type(u) is not type(v):
        raise SpaceMismatchError(
            f"cannot pair {type(u).__name__} with {type(v).__name__}"
        )
    return u.inner(v)


def element(space, origin, coeffs, osc=None):
    """The element of `space` with these coefficients: a sequence's
    window from index `origin`, or a function's Legendre coefficients,
    which start at degree 0 (`origin` is 0), and its atoms {(m, w): c}."""
    if space[0] == "seq":
        return Seq(space[1], origin, coeffs)
    return Func(space[1], coeffs, {} if osc is None else osc)


def lincomb(coeffs, elements):
    """Sum of coeff * element over a nonempty list.

    The rows of the coordinate block are scaled and added in list order,
    so every coefficient gets the same sum as adding the scaled elements
    one after another.
    """
    (block,) = stack(elements)
    coeffs = np.asarray(coeffs)[:, None]
    total = _row_sum(coeffs * block.coords)
    osc = dict(zip(block.atoms, _row_sum(coeffs * block.osc)))
    if not len(block.index):
        return element(block.space, elements[0].origin, total, osc)
    lo = int(block.index[0])
    values = np.zeros(int(block.index[-1]) - lo + 1, dtype=complex)
    values[block.index - lo] = total
    return element(block.space, lo, values, osc)


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """The rows added one after another.  np.add.reduce does that along
    axis 0, except on a single column, which it sums pairwise."""
    if rows.shape[1] == 1:
        return np.cumsum(rows, axis=0)[-1]
    return np.add.reduce(rows, axis=0)


# ---------------------------------------------------------------------------
# coordinate blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateBlock:
    """Elements of one space as the rows of coefficient matrices.

    `coords` holds each element's coefficients at the sorted window
    coordinates `index`: a function's Legendre degrees 0, 1, ..., or
    sequence indices.  It is a dense array, or a sparse one for a
    coordinate frame's selection (see `OrthonormalBasis.block`).  `osc`
    holds the coefficients on the oscillatory atoms x^m e^{iwx} listed
    in `atoms`, sorted by (m, w), and has no columns on sequences: a
    product then sums each entry in an order that depends only on its
    two elements, not on the rest of the block.
    """

    space: tuple
    coords: object
    index: np.ndarray
    osc: np.ndarray
    atoms: tuple = ()

    def mapped(self, fn) -> "CoordinateBlock":
        """Every coefficient at sequence index n multiplied by fn(n)."""
        return replace(self, coords=map_by_index(self.coords.T, self.index, fn).T)

    def shifted(self, step: int) -> "CoordinateBlock":
        """Sequence indices moved by `step`; nat-indexed columns falling
        below 1 are dropped."""
        index = self.index + step
        cut = int(np.searchsorted(index, 1)) if self.space[1] == "nat" else 0
        return replace(self, coords=self.coords[:, cut:], index=index[cut:])


def stack(*lists) -> list:
    """One coordinate block per nonempty list of elements of one space.

    The blocks share their columns: the coordinates at which some
    element stores a value (for functions, the Legendre degrees up to
    the longest expansion), so that sequences far apart add no columns
    for the gap between them.  Each block lists the atoms of its own
    elements.
    """
    space = lists[0][0].space
    for e in (e for lst in lists for e in lst):
        if e.space != space:
            raise SpaceMismatchError(f"cannot pair elements of {space} with elements of {e.space}")
    filled = [e for lst in lists for e in lst if len(e.values)]
    index = _stored_indices(filled)
    # a stored window is contiguous in the sorted index
    starts = iter(np.searchsorted(index, [e.origin for e in filled]).tolist())
    blocks = []
    for lst in lists:
        atoms = sorted({key for e in lst for key in e.osc})
        slot = {key: j for j, key in enumerate(atoms)}
        coords = np.zeros((len(lst), len(index)), dtype=complex)
        osc = np.zeros((len(lst), len(atoms)), dtype=complex)
        for i, e in enumerate(lst):
            if len(e.values):
                start = next(starts)
                coords[i, start : start + len(e.values)] = e.values
            for key, c in e.osc.items():
                osc[i, slot[key]] = c
        blocks.append(CoordinateBlock(space, coords, index, osc, tuple(atoms)))
    return blocks


def appended(block: CoordinateBlock, e) -> CoordinateBlock:
    """The block with the element `e` as one more row.

    The rows share the union of the two sets of columns, so each keeps
    its own entries, signed zeros included, with zeros in the columns
    it lacks.
    """
    if e.space != block.space:
        raise SpaceMismatchError(f"cannot pair elements of {block.space} with elements of {e.space}")
    n = block.coords.shape[0]
    lo, hi = e.origin, e.origin + len(e.values)
    a, b = np.searchsorted(block.index, [lo, hi]).tolist()
    # e's window [lo, hi) in place of the block's columns inside it
    index = np.concatenate([block.index[:a], np.arange(lo, hi), block.index[b:]])
    coords = np.zeros((n + 1, len(index)), dtype=complex)
    m = len(block.index)
    if m and block.index[-1] - block.index[0] == m - 1:  # one run, so one run of `index` too
        at = slice(start := int(np.searchsorted(index, block.index[0])), start + m)
    else:
        at = np.searchsorted(index, block.index)
    coords[:n, at] = block.coords
    coords[n, a : a + hi - lo] = e.values
    atoms = sorted(set(block.atoms) | set(e.osc))
    slot = {key: j for j, key in enumerate(atoms)}
    osc = np.zeros((n + 1, len(atoms)), dtype=complex)
    osc[:n, [slot[key] for key in block.atoms]] = block.osc
    for key, c in e.osc.items():
        osc[n, slot[key]] = c
    return CoordinateBlock(block.space, coords, index, osc, tuple(atoms))


def _stored_indices(elements) -> np.ndarray:
    """The sorted coordinates at which some element stores a value: the
    union of their windows, merged into runs."""
    origins = {e.origin for e in elements}
    if len(origins) <= 1:  # windows from one origin: the longest holds the rest
        lo = origins.pop() if origins else 0
        return np.arange(lo, lo + max((len(e.values) for e in elements), default=0))
    lo = np.array([e.origin for e in elements])
    hi = lo + np.array([len(e.values) for e in elements])
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], np.maximum.accumulate(hi[order])
    first = np.append(True, lo[1:] > hi[:-1])  # windows that start a run
    starts, stops = lo[first], hi[np.append(first[1:], True)]
    return np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])


def inner_matrix(tests, elements) -> np.ndarray:
    """The matrix [<v_i, u_j>] for v_i in `tests` and u_j in `elements`.

    Each argument is a list of elements or a coordinate block; lists are
    stacked together.  With V and U the two blocks this is V^H G U, G
    being the Gram matrix of their columns: the identity on Legendre
    degrees and sequence indices, the moments int L_k x^m e^{iwx}
    between a degree and an atom, and iosc between two atoms (once per
    distinct m1 + m2, w2 - w1).  The products are sparse: a row of V
    holding a single 1 (a Legendre or canonical basis vector) copies
    its row of G U exactly.
    """
    V, U = _blocks(tests, elements)
    # the window rows of G U, at the coordinates `index`
    index, GU = U.index, U.coords
    if U.atoms:  # an atom meets every degree of V; degrees run from 0
        index = np.arange(max(len(U.index), len(V.index)))
        GU = _sparse(U.osc) @ _moments(U.space[1], U.atoms, len(index)).T
        GU[:, : U.coords.shape[1]] += U.coords
    A = _rows_on(V, index) @ GU.T
    if V.atoms:
        # the atom rows of G U: moments of U's degrees, iosc of U's atoms
        interval = V.space[1]
        moments = _moments(interval, V.atoms, U.coords.shape[1])
        gram = _atom_gram(interval, V.atoms, U.atoms)
        A += _sparse(V.osc.conj()) @ (_sparse(U.coords) @ moments.conj() + _sparse(U.osc) @ gram.T).T
    return A


def _blocks(tests, elements):
    """The coordinate blocks of the two arguments of `inner_matrix`."""
    lists = [x for x in (tests, elements) if not isinstance(x, CoordinateBlock)]
    stacked = iter(stack(*lists) if lists else ())
    V, U = (x if isinstance(x, CoordinateBlock) else next(stacked) for x in (tests, elements))
    if V.space != U.space:
        raise SpaceMismatchError(f"cannot pair elements of {V.space} with elements of {U.space}")
    return V, U


def _rows_on(V, index):
    """conj(V) as a CSR matrix on the columns of G U, at the sorted
    coordinates `index`, so that its product with (G U)^T is V^H G U.
    A column of V that G U lacks would meet zeros only, and a sum
    started at +0, as the sparse product starts, is the same without
    them, so it is dropped."""
    rows, cols, values = _nonzeros(V.coords)
    pos = np.searchsorted(index, V.index)
    found = pos < len(index)
    found[found] = index[pos[found]] == V.index[found]
    keep, cols = found[cols], pos[cols]
    return _csr(rows[keep], cols[keep], values[keep].conj(), (V.coords.shape[0], len(index)))


def _nonzeros(x):
    """(rows, columns, values) of the nonzero entries of a dense or CSR
    matrix, row by row, each row in column order."""
    if scipy.sparse.issparse(x):
        return np.repeat(np.arange(x.shape[0]), np.diff(x.indptr)), x.indices, x.data
    rows, cols = np.nonzero(x)
    return rows, cols, x[rows, cols]


def _csr(rows, cols, values, shape):
    """The CSR matrix of entries listed row by row, each row in column
    order: what scipy makes of the dense matrix, in one step."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return scipy.sparse.csr_array((values, cols, indptr), shape=shape)


def _sparse(x: np.ndarray):
    """A dense matrix as a CSR matrix of its nonzero entries."""
    return _csr(*_nonzeros(x), x.shape)


def _moments(interval, atoms, degrees: int) -> np.ndarray:
    """Columns [int L_k x^m e^{iwx} for k < degrees], one per atom (m, w)."""
    out = np.zeros((degrees, len(atoms)), dtype=complex)
    for j, (m, w) in enumerate(atoms):
        out[:, j] = leg_osc_integral(interval, degrees - 1, m, w)
    return out


def _atom_gram(interval, left, right) -> np.ndarray:
    """Matrix of <x^m1 e^{i w1 x}, x^m2 e^{i w2 x}> = iosc(m1 + m2, w2 - w1)."""
    m1, w1 = np.array(left, dtype=float).reshape(-1, 2).T
    m2, w2 = np.array(right, dtype=float).reshape(-1, 2).T
    keys = np.empty((len(m1), len(m2)), dtype=complex)  # m1 + m2 + i (w2 - w1)
    keys.real = m1[:, None] + m2[None, :]
    keys.imag = w2[None, :] - w1[:, None]
    distinct, where = np.unique(keys, return_inverse=True)
    values = np.array([iosc(interval, int(k.real), float(k.imag)) for k in distinct])
    return values[where].reshape(keys.shape)
