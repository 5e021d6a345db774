"""Span tracer for hilbtrunc, installed from outside the package.

`Tracer.install()` rebinds every `hilbtrunc.*` module attribute that is
one of the traced functions, and the traced methods on their classes,
to timing wrappers; `uninstall()` puts the original objects back.

Coarse boundaries (`SPAN_FUNCTIONS`) become spans kept in memory: name,
start, end, parent, op id, and the problem size N where the call has
one.  Hot leaves (`LEAF_FUNCTIONS`, `LEAF_METHODS`) run 10^4 to 10^6
times per op, so they are not recorded one by one: each span holds, per
leaf name, the call count and the summed self and inclusive time of the
leaf calls made under it.  A self time is a duration minus the time its
traced children cover.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time

# traced name -> (module, attribute)
SPAN_FUNCTIONS = {
    "cli.main": ("hilbtrunc.cli", "main"),
    "truncation.compress": ("hilbtrunc.truncation", "compress"),
    "truncation.solve_direct": ("hilbtrunc.truncation", "solve_direct"),
    "truncation.solve_gmres": ("hilbtrunc.truncation", "solve_gmres"),
    "truncation.solve_cg": ("hilbtrunc.truncation", "solve_cg"),
    "truncation.lift": ("hilbtrunc.truncation", "lift"),
    "diagnostics.evaluate": ("hilbtrunc.diagnostics", "evaluate"),
    "diagnostics.noise_series": ("hilbtrunc.diagnostics", "noise_series"),
    "diagnostics.classify": ("hilbtrunc.diagnostics", "classify"),
    "bases.arnoldi": ("hilbtrunc.bases", "arnoldi"),
    "bases.adversarial_test_basis": ("hilbtrunc.bases", "adversarial_test_basis"),
}

LEAF_FUNCTIONS = {
    "core.gauss_legendre": ("hilbtrunc.core", "gauss_legendre"),
    "core.qr_least_squares": ("hilbtrunc.core", "qr_least_squares"),
    "elements.leg_osc_integral": ("hilbtrunc.elements", "leg_osc_integral"),
    "elements.iosc": ("hilbtrunc.elements", "iosc"),
    "elements.arith": ("hilbtrunc.elements", "lincomb"),
    "diagnostics.law_tail_sq": ("hilbtrunc.diagnostics", "law_tail_sq"),
}

# traced name -> [(module, class, method)]; operator `apply` methods are
# found at install time, one per class that defines its own.
LEAF_METHODS = {
    "elements.inner": [
        ("hilbtrunc.elements", "Func", "inner"),
        ("hilbtrunc.elements", "Seq", "inner"),
    ],
    "elements.arith": [
        ("hilbtrunc.elements", cls, meth)
        for cls in ("Func", "Seq")
        for meth in ("__add__", "__sub__", "__rmul__")
    ],
    "bases.element": [("hilbtrunc.bases", "OrthonormalBasis", "element")],
}


def _size_compress(args, kwargs):
    return kwargs["N"] if "N" in kwargs else args[3]


def _size_solve_direct(args, kwargs):
    return (kwargs.get("p") or args[0]).N


def _size_evaluate(args, kwargs):
    sol = kwargs.get("sol") or args[2]
    return len(sol.f_N_coeffs) or sol.iterations


# spans whose inclusive time is fitted against N for `*.n_exponent`
SIZE_OF = {
    "truncation.compress": _size_compress,
    "truncation.solve_direct": _size_solve_direct,
    "diagnostics.evaluate": _size_evaluate,
}


class Span:
    __slots__ = ("id", "name", "parent", "op", "n", "start", "end", "child", "leaves")

    def __init__(self, id, name, parent, op, n):
        self.id = id
        self.name = name
        self.parent = parent
        self.op = op
        self.n = n
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0  # time covered by traced children
        # leaf name -> [calls, self_s, inclusive_s, cache_hits]
        self.leaves = {}

    def as_dict(self):
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "op": self.op,
            "n": self.n,
            "start": self.start,
            "end": self.end,
            "self_s": self.end - self.start - self.child,
            "leaves": self.leaves,
        }


class Tracer:
    """Wraps hilbtrunc's layer boundaries; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._frames = []  # [child_time] of every open traced call
        self._open = []  # open spans, innermost last
        self._saved = []  # (owner, attribute, original) for uninstall
        self._push(Span(0, "trace", None, None, None))

    # -- span bookkeeping ------------------------------------------------

    def _push(self, span):
        self.spans.append(span)
        self._open.append(span)
        self._frames.append([0.0])
        span.start = time.perf_counter()

    def _pop(self):
        span = self._open.pop()
        frame = self._frames.pop()
        span.end = time.perf_counter()
        span.child = frame[0]
        if self._frames:
            self._frames[-1][0] += span.end - span.start

    def begin_op(self, op_id):
        self._push(Span(len(self.spans), "op", self._open[-1].id, op_id, None))

    def end_op(self):
        self._pop()

    def close(self):
        """End every open span, the root included."""
        while self._open:
            self._pop()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        size_of = SIZE_OF.get(name)
        tracer = self

        @functools.wraps(fn)
        def span_call(*args, **kwargs):
            parent = tracer._open[-1]
            n = size_of(args, kwargs) if size_of is not None else None
            tracer._push(Span(len(tracer.spans), name, parent.id, parent.op, n))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pop()

        return span_call

    def _leaf_wrapper(self, name, fn, count_hits=False):
        frames = self._frames
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def leaf_call(*args, **kwargs):
            hit = count_hits and args[1] in args[0]._cache
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                frames.pop()
                frames[-1][0] += dur
                leaves = open_spans[-1].leaves
                agg = leaves.get(name)
                if agg is None:
                    agg = leaves[name] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dur - frame[0]
                agg[2] += dur
                if hit:
                    agg[3] += 1

        return leaf_call

    # -- install / uninstall ---------------------------------------------

    def _rebind_function(self, module, attr, make_wrapper):
        original = getattr(sys.modules[module], attr)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "hilbtrunc" or mod_name.startswith("hilbtrunc.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _rebind_method(self, cls, attr, wrapper_of):
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, wrapper_of(original))

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        import hilbtrunc.cli  # noqa: F401  (loads every traced module)
        from hilbtrunc.operators import BoundedOperator

        for name, (module, attr) in SPAN_FUNCTIONS.items():
            self._rebind_function(
                module, attr, lambda fn, name=name: self._span_wrapper(name, fn)
            )
        for name, (module, attr) in LEAF_FUNCTIONS.items():
            self._rebind_function(
                module, attr, lambda fn, name=name: self._leaf_wrapper(name, fn)
            )
        methods = dict(LEAF_METHODS)
        methods["operators.apply"] = [
            (cls.__module__, cls.__name__, "apply")
            for cls in _subclasses(BoundedOperator)
            if "apply" in cls.__dict__
        ]
        for name, targets in methods.items():
            for module, cls_name, attr in targets:
                cls = getattr(sys.modules[module], cls_name)
                self._rebind_method(
                    cls,
                    attr,
                    lambda fn, name=name: self._leaf_wrapper(
                        name, fn, count_hits=(name == "bases.element")
                    ),
                )

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        self.close()
        return False


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans
# ---------------------------------------------------------------------------

def n_exponent(points):
    """Least-squares slope of log(median inclusive time) against log(N).

    `points` is a list of (N, seconds).  Returns 0.0 when fewer than two
    distinct N values with positive times are present.
    """
    by_n = {}
    for n, t in points:
        if n and n > 0 and t > 0:
            by_n.setdefault(n, []).append(t)
    if len(by_n) < 2:
        return 0.0
    xs = [math.log(n) for n in sorted(by_n)]
    ys = [math.log(statistics.median(by_n[n])) for n in sorted(by_n)]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(spans, skip_scaling_ops=()):
    """Per-layer totals over one traced pass, from `Span.as_dict()` records.

    Spans of the ops in `skip_scaling_ops` (ops that replay memo keys of an
    earlier op) count everywhere except in the `*.n_exponent` fits.
    """
    span_self = {}
    span_calls = {}
    sizes = {}
    leaves = {}
    for s in spans:
        span_self[s["name"]] = span_self.get(s["name"], 0.0) + s["self_s"]
        span_calls[s["name"]] = span_calls.get(s["name"], 0) + 1
        if s["n"] is not None and s["op"] not in skip_scaling_ops:
            sizes.setdefault(s["name"], []).append((s["n"], s["end"] - s["start"]))
        for name, (calls, self_s, incl, hits) in s["leaves"].items():
            agg = leaves.setdefault(name, [0, 0.0, 0.0, 0])
            agg[0] += calls
            agg[1] += self_s
            agg[2] += incl
            agg[3] += hits

    def leaf(name, field):
        return leaves.get(name, [0, 0.0, 0.0, 0])[field]

    element_calls = leaf("bases.element", 0)
    element_hits = leaf("bases.element", 3)
    out = {
        "core.gauss_legendre.calls": leaf("core.gauss_legendre", 0),
        "core.gauss_legendre.self_s": leaf("core.gauss_legendre", 1),
        "elements.leg_osc_integral.calls": leaf("elements.leg_osc_integral", 0),
        "elements.leg_osc_integral.self_s": leaf("elements.leg_osc_integral", 1),
        "elements.iosc.calls": leaf("elements.iosc", 0),
        "elements.inner.calls": leaf("elements.inner", 0),
        "elements.inner.self_s": leaf("elements.inner", 1),
        "elements.arith.calls": leaf("elements.arith", 0),
        "elements.arith.self_s": leaf("elements.arith", 1),
        "operators.apply.calls": leaf("operators.apply", 0),
        "operators.apply.self_s": leaf("operators.apply", 1),
        "bases.element.calls": element_calls,
        "bases.generate.calls": element_calls - element_hits,
        "bases.element.hit_ratio": element_hits / element_calls if element_calls else 0.0,
        "bases.arnoldi.self_s": span_self.get("bases.arnoldi", 0.0),
        "bases.adversarial_test_basis.self_s": span_self.get(
            "bases.adversarial_test_basis", 0.0
        ),
        "truncation.compress.calls": span_calls.get("truncation.compress", 0),
        "truncation.compress.entries": sum(
            n * n for n, _ in sizes.get("truncation.compress", [])
        ),
        "truncation.compress.self_s": span_self.get("truncation.compress", 0.0),
        "truncation.compress.n_exponent": n_exponent(
            sizes.get("truncation.compress", [])
        ),
        "truncation.solve_direct.self_s": span_self.get("truncation.solve_direct", 0.0),
        "truncation.solve_direct.n_exponent": n_exponent(
            sizes.get("truncation.solve_direct", [])
        ),
        "core.qr_least_squares.calls": leaf("core.qr_least_squares", 0),
        "core.qr_least_squares.self_s": leaf("core.qr_least_squares", 1),
        "truncation.solve_gmres.self_s": span_self.get("truncation.solve_gmres", 0.0),
        "truncation.solve_cg.self_s": span_self.get("truncation.solve_cg", 0.0),
        "truncation.lift.self_s": span_self.get("truncation.lift", 0.0),
        "diagnostics.evaluate.self_s": span_self.get("diagnostics.evaluate", 0.0),
        "diagnostics.evaluate.n_exponent": n_exponent(
            sizes.get("diagnostics.evaluate", [])
        ),
        "diagnostics.noise_series.self_s": span_self.get(
            "diagnostics.noise_series", 0.0
        ),
        "diagnostics.law_tail_sq.calls": leaf("diagnostics.law_tail_sq", 0),
        "diagnostics.classify.self_s": span_self.get("diagnostics.classify", 0.0),
        "cli.main.self_s": span_self.get("cli.main", 0.0),
    }
    return out
