"""Model operators and the capability interface consumed everywhere else.

Kinds: multiplication by a sequence law on l2(N), the right shift, the
compact weighted right shifts on l2(N) and l2(Z), the integration
operator (Vf)(x) = integral_0^x f on L2[0,1], and multiplication by x
on L2[a,b].  Each instance is immutable and advertises the capabilities
its kind supports: apply, adjoint, exact SVD, known operator norm,
self-adjointness/positivity flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CapabilityError, SpaceMismatchError
from .elements import (
    CoordinateBlock,
    Func,
    Seq,
    integrate_leg01,
    mult_x_leg,
    osc_antiderivative,
)

_LAW_CHECK_WINDOW = 10_000


@dataclass(frozen=True)
class SequenceLaw:
    """Closed-form sequence n -> value, usable at arbitrary index.

    The law builders record their kind ("pow", "pow1", "geom", "const")
    and exact parameters; `name` formats them with :g for labels.  A
    custom law leaves `kind` empty.
    """

    name: str
    fn: Callable
    kind: str = ""
    params: tuple = ()

    def __call__(self, n):
        return self.fn(np.asarray(n))


def power_law(c: float, p: float) -> SequenceLaw:
    """c * n^(-p)."""
    return SequenceLaw(
        f"pow:{c:g},{p:g}", lambda n: c * np.asarray(n, dtype=float) ** (-p), "pow", (c, p)
    )


def geometric_law(c: float, q: float) -> SequenceLaw:
    """c * q^n."""
    return SequenceLaw(
        f"geom:{c:g},{q:g}", lambda n: c * q ** np.asarray(n, dtype=float), "geom", (c, q)
    )


def constant_law(c: float) -> SequenceLaw:
    return SequenceLaw(
        f"const:{c:g}", lambda n: c * np.ones_like(np.asarray(n, dtype=float)), "const", (c,)
    )


def shifted_power_law(c: float, p: float) -> SequenceLaw:
    """c * (n+1)^(-p); finite at n = 0, for Z-indexed weights."""
    return SequenceLaw(
        f"pow1:{c:g},{p:g}",
        lambda n: c * (np.asarray(n, dtype=float) + 1.0) ** (-p),
        "pow1",
        (c, p),
    )


def parse_law(text: str) -> SequenceLaw:
    """Parse a law string: pow:c,p | pow1:c,p | geom:c,q | const:c."""
    head, _, rest = text.partition(":")
    try:
        if head == "pow":
            c, p = (float(v) for v in rest.split(","))
            return power_law(c, p)
        if head == "pow1":
            c, p = (float(v) for v in rest.split(","))
            return shifted_power_law(c, p)
        if head == "geom":
            c, q = (float(v) for v in rest.split(","))
            return geometric_law(c, q)
        if head == "const":
            return constant_law(float(rest))
    except ValueError as exc:
        raise ValueError(f"malformed law {text!r}") from exc
    raise ValueError(f"unknown law kind {text!r}")


@dataclass(frozen=True)
class SvdTriple:
    """Singular value decomposition A = sum_n sigma(n) |left(n)><right(n)|.

    All callables are 1-indexed; sigma is strictly decreasing and positive,
    the families orthonormal.
    """

    sigma: Callable[[int], float]
    right: Callable[[int], object]  # phi_n, the trial-side family
    left: Callable[[int], object]   # psi_n, the test-side family


class BoundedOperator:
    """Base class: immutable operator with declared capabilities.

    `frame_band` = (kl, ku) is the band of the operator's matrix on its
    frame's coordinates (Legendre degrees on a function space, sequence
    indices on a sequence space): the image of coordinate c has no
    nonzero coefficient outside c - ku .. c + kl.  None declares no band.
    """

    kind = "abstract"
    frame_band = None

    def __init__(self, label, space, op_norm=None, self_adjoint=False,
                 positive=False, compact=False):
        self.label = label
        self.space = space  # ("seq", domain) or ("func", interval)
        self.op_norm = op_norm
        self.self_adjoint = self_adjoint
        self.positive = positive
        self.compact = compact

    def _check(self, x):
        """Refuse an element or a coordinate block of another space."""
        space = getattr(x, "space", None)
        if space != self.space:
            raise SpaceMismatchError(f"{self.label} acts on {self.space}, not {space}")

    def apply(self, f):
        raise NotImplementedError

    def apply_block(self, block: CoordinateBlock) -> CoordinateBlock:
        """The images of a block's elements, as one block: the same
        arithmetic as `apply`, on all elements at once.  A subclass that
        overrides `apply` overrides this too."""
        raise NotImplementedError

    def adjoint_apply(self, f):
        raise CapabilityError(f"{self.label} has no adjoint capability")

    def exact_svd(self) -> SvdTriple:
        raise CapabilityError(f"{self.label} has no exact SVD")


def _probe(law: SequenceLaw, start: int, role: str = "law") -> np.ndarray:
    """The law's values on the _LAW_CHECK_WINDOW indices from `start`;
    ValueError unless all are finite, and no numpy warning on the way."""
    n = np.arange(start, start + _LAW_CHECK_WINDOW)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
        vals = np.asarray(law(n))
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{role} {law.name} is not finite from index {start}")
    return vals


def _validate_weight_law(law: SequenceLaw, start: int):
    vals = np.asarray(_probe(law, start, "weight law"), dtype=float)
    if not np.all(vals >= 0) or vals[0] <= 0:
        raise ValueError(f"weight law {law.name} must be positive")
    # fast laws may underflow to exact zero inside the window; check the
    # positive prefix and require the tail to stay at zero
    positive = vals > 0
    cut = len(vals) if positive.all() else int(np.argmin(positive))
    if np.any(vals[cut:] != 0):
        raise ValueError(f"weight law {law.name} must be positive")
    if not np.all(np.diff(vals[:cut]) < 0):
        raise ValueError(f"weight law {law.name} must be strictly decreasing")


class _WeightedShift(BoundedOperator):
    """The sequence map e_n -> weight(n) e_{n+step}: multiplication by a
    law at step 0, the (weighted) right shifts at step 1.  `weight` is a
    law, or None for weight 1.  Elements and coordinate blocks both map
    and shift, so `apply` also serves as `apply_block`; the adjoint
    shifts back, then multiplies by conj(weight)."""

    weight = None
    step = 0

    @property
    def frame_band(self):
        return (self.step, 0)

    def apply(self, f):
        self._check(f)
        if self.weight is not None:
            f = f.mapped(self.weight)
        return f.shifted(self.step) if self.step else f

    apply_block = apply

    def adjoint_apply(self, f):
        self._check(f)
        if self.step:
            f = f.shifted(-self.step)
        if self.weight is None:
            return f
        return f.mapped(lambda n: np.conj(self.weight(n)))


class MultiplicationSeq(_WeightedShift):
    """Multiplication by a bounded sequence law on l2(N)."""

    kind = "multiplication_seq"

    def __init__(self, law: SequenceLaw):
        probe = _probe(law, 1)
        # c n^(-p) and c (n+1)^(-p) grow for p < 0, c q^n for |q| > 1
        c, rate = (law.params + (0.0, 0.0))[:2]
        grows = rate < 0 if law.kind in ("pow", "pow1") else law.kind == "geom" and abs(rate) > 1
        if c != 0 and grows:
            raise ValueError(f"law {law.name} is unbounded")
        is_real = bool(np.all(np.isreal(probe)))
        peak = float(np.max(np.abs(probe)))
        super().__init__(
            label=f"mult-seq({law.name})",
            space=("seq", "nat"),
            # supremum over the probe window; exact for the monotone presets
            op_norm=peak,
            self_adjoint=is_real,
            positive=is_real and bool(np.all(probe.real >= 0)),
            # heuristic: the law has visibly decayed on the window
            compact=bool(abs(probe[-1]) < 0.01 * peak),
        )
        self.law = self.weight = law


class RightShift(_WeightedShift):
    """The isometry e_n -> e_{n+1} on l2(N); adjoint is the left shift."""

    kind = "right_shift"
    step = 1

    def __init__(self):
        super().__init__(label="right-shift", space=("seq", "nat"), op_norm=1.0)


class WeightedRightShift(_WeightedShift):
    """Compact weighted right shift e_n -> sigma_n e_{n+1} on l2(N)."""

    kind = "weighted_right_shift"
    step = 1

    def __init__(self, law: SequenceLaw):
        _validate_weight_law(law, start=1)
        super().__init__(
            label=f"weighted-right-shift({law.name})",
            space=("seq", "nat"),
            op_norm=float(law(np.array(1))),
            compact=True,
        )
        self.law = self.weight = law

    def exact_svd(self) -> SvdTriple:
        return SvdTriple(
            sigma=lambda n: float(self.law(np.array(n))),
            right=lambda n: Seq.basis_vector(n),
            left=lambda n: Seq.basis_vector(n + 1),
        )


class WeightedRightShiftZ(_WeightedShift):
    """Compact weighted right shift e_n -> sigma_|n| e_{n+1} on l2(Z).

    The weight law is indexed from 0.  Singular values occur in pairs
    (sigma_|n| for n and -n), so no strictly-decreasing SVD enumeration
    exists and the exact-SVD capability is absent.
    """

    kind = "weighted_right_shift_Z"
    step = 1

    def __init__(self, law: SequenceLaw):
        _validate_weight_law(law, start=0)
        super().__init__(
            label=f"weighted-right-shift-Z({law.name})",
            space=("seq", "int"),
            op_norm=float(law(np.array(0))),
            compact=True,
        )
        self.law = law
        self.weight = lambda n: law(np.abs(n))


class Volterra(BoundedOperator):
    """Integration from 0 on L2[0,1]: (Vf)(x) = integral_0^x f."""

    kind = "volterra"
    frame_band = (1, 1)

    def __init__(self):
        super().__init__(
            label="volterra",
            space=("func", (0.0, 1.0)),
            op_norm=2.0 / math.pi,
            compact=True,
        )

    def apply(self, f: Func) -> Func:
        self._check(f)
        leg = integrate_leg01(f.leg)
        # in the block's sorted (m, w) order, so apply_block's bits match
        osc, const = _integrate_atoms(sorted(f.osc.items()))
        if const != 0:
            leg[0] += const  # the constant function is the degree-0 element
        return Func(f.interval, leg, osc)

    def apply_block(self, block):
        self._check(block)
        leg = integrate_leg01(block.coords.T)
        osc, const = _integrate_atoms(zip(block.atoms, block.osc.T))
        leg[0] += const
        atoms = sorted(osc)
        columns = np.array([osc[key] for key in atoms], dtype=complex)
        return CoordinateBlock(
            self.space, leg.T, columns.reshape(len(atoms), leg.shape[1]).T, tuple(atoms)
        )

    def adjoint_apply(self, f: Func) -> Func:
        # V* f = <1, f> 1 - V f
        self._check(f)
        total = Func.from_leg(f.interval, [1.0]).inner(f)
        return Func.from_leg(f.interval, [total]) - self.apply(f)

    def exact_svd(self) -> SvdTriple:
        def sigma(n):
            return 2.0 / ((2 * n - 1) * math.pi)

        def right(n):  # sqrt(2) cos((2n-1) pi x / 2)
            w = (2 * n - 1) * math.pi / 2.0
            s = 1.0 / math.sqrt(2.0)
            return Func.from_osc((0.0, 1.0), {(0, w): s, (0, -w): s})

        def left(n):  # sqrt(2) sin((2n-1) pi x / 2)
            w = (2 * n - 1) * math.pi / 2.0
            s = 1.0 / math.sqrt(2.0)
            return Func.from_osc((0.0, 1.0), {(0, w): -1j * s, (0, -w): 1j * s})

        return SvdTriple(sigma=sigma, right=right, left=left)


class MultiplicationX(BoundedOperator):
    """Multiplication by the coordinate on L2[a,b]; self-adjoint."""

    kind = "multiplication_x"
    frame_band = (1, 1)

    def __init__(self, interval):
        a, b = (float(interval[0]), float(interval[1]))
        # also not finite when a bound is: its width is then inf or nan
        if not math.isfinite(b - a):
            raise ValueError(f"interval [{a}, {b}] has no finite width")
        if not a < b:
            raise ValueError(f"degenerate interval [{a}, {b}]")
        super().__init__(
            label=f"mult-x[{a:g},{b:g}]",
            space=("func", (a, b)),
            op_norm=max(abs(a), abs(b)),
            self_adjoint=True,
            positive=a >= 0,
        )

    def apply(self, f: Func) -> Func:
        self._check(f)
        leg = mult_x_leg(f.interval, f.leg)
        osc = {(m + 1, w): c for (m, w), c in f.osc.items()}
        return Func(f.interval, leg, osc)

    def apply_block(self, block):
        self._check(block)
        leg = mult_x_leg(self.space[1], block.coords.T)
        atoms = tuple((m + 1, w) for m, w in block.atoms)
        return CoordinateBlock(self.space, leg.T, block.osc, atoms)

    adjoint_apply = apply


def _integrate_atoms(terms):
    """Integral from 0 of the terms c x^m e^{iwx}, for ((m, w), c) in
    `terms`: ({(j, w): coefficient}, constant), the constant being the
    value at 0 subtracted.  c is one coefficient, or a column of them,
    one per element of a block."""
    osc: dict = {}
    const = 0.0 + 0.0j
    for (m, w), c in terms:
        coeffs = osc_antiderivative(m, w)
        for j, cj in enumerate(coeffs):
            key = (j, w)
            osc[key] = osc.get(key, 0.0) + c * cj
        const -= c * coeffs[0]
    return osc, const


def parse_operator(text: str) -> BoundedOperator:
    """Parse CLI operator strings.

    Grammar: volterra | mult-x:a,b | right-shift |
    weighted-right-shift:LAW | weighted-right-shift-z:LAW | mult-seq:LAW
    where LAW is pow:c,p | pow1:c,p | geom:c,q | const:c.
    """
    head, _, rest = text.partition(":")
    if head == "volterra":
        return Volterra()
    if head == "mult-x":
        a, b = (float(v) for v in rest.split(","))
        return MultiplicationX((a, b))
    if head == "right-shift":
        return RightShift()
    if head == "weighted-right-shift":
        return WeightedRightShift(parse_law(rest))
    if head == "weighted-right-shift-z":
        return WeightedRightShiftZ(parse_law(rest))
    if head == "mult-seq":
        return MultiplicationSeq(parse_law(rest))
    raise ValueError(f"unknown operator spec {text!r}")


def volterra_power_apply(n: int, f: Func) -> Func:
    """n-th power of the integration operator via its explicit kernel.

    Expands the kernel (x-y)^{n-1}/(n-1)! binomially, so each term is a
    monomial multiplication, one integration, and another monomial
    multiplication; this path is independent of iterating apply().
    """
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    op = Volterra()
    op._check(f)
    mult = MultiplicationX((0.0, 1.0))
    acc = Func.zero(f.interval)
    # y^k f, integrated, then times x^{n-1-k}
    yk = f
    for k in range(0, n):
        term = op.apply(yk)
        for _ in range(n - 1 - k):
            term = mult.apply(term)
        coeff = ((-1.0) ** k) * math.comb(n - 1, k) / math.factorial(n - 1)
        acc = acc + coeff * term
        if k < n - 1:
            yk = mult.apply(yk)
    return acc
