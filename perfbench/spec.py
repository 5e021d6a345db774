"""What the benchmark measures and why: the source of BENCHMARK.json.

`write_spec()` writes BENCHMARK.json (the keys the benchmark contract
allows, nothing else) and `perfbench/design.json`, which holds the
reasoning that has no place in it: each workload's rationale and
measured interval-reuse share, the layer -> end-to-end prediction table
and the environment the numbers were taken in.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

RUN_SECONDS = 30
BLAS_THREADS = 1  # single-threaded BLAS in every worker, <= nproc anywhere

WORKLOADS = [
    {
        "name": "cli-suite",
        "why": "the README's CLI commands (every preset and demo) shuffled and "
        "repeated: many short ops, noise_series, classify, adversarial basis, CSV "
        "formatting",
        "rationale": "What a user of the shipped tool runs: 44 ops per pass of "
        "5 ms to 0.6 s, the only workload with at least 100 ops per run, so its "
        "op_p90_s has ten or more samples beyond it. The only workload that "
        "exercises noise_series, classify, the adversarial basis and CSV "
        "formatting. shift-weak-residual recompresses 100 times, so compress "
        "runs, but quadrature does no work.",
    },
    {
        "name": "legendre-dense",
        "why": "Legendre pair, QR, volterra and mult-x sweeps to N in "
        "{160,320,640}: N^2 inner calls in compress, O(N^3) gelsy, a lift per "
        "sweep point; no oscillatory term",
        "rationale": "The README's 'dense up to ~1000x1000' scope. Time goes to "
        "N^2 Python-level inner calls in compress, O(N^3) gelsy and a lift at "
        "every sweep point. No oscillatory term appears, so leg_osc_integral "
        "never runs.",
    },
    {
        "name": "fourier-mixed",
        "why": "mult-x with Legendre/Fourier trial-test pairs, N_max 10..28, "
        "3 of 11 ops reuse an interval: leg_osc_integral and gauss_legendre "
        "dominate, memo caches both hit and miss",
        "rationale": "Almost all the time goes to elements.leg_osc_integral and "
        "core.gauss_legendre (ROADMAP item 2's target). The other ops start "
        "with cold memo keys, as a fresh CLI process does; fixing and reporting "
        "the reuse share lets a caching change show both its gain and its "
        "cost. Volterra is left out because its fixed interval would turn "
        "every op after the first into cache lookups.",
    },
    {
        "name": "krylov",
        "why": "GMRES and CG over Krylov bases (volterra, weighted right shift, "
        "mult-x): arnoldi, solve_gmres/solve_cg and element arithmetic dominate",
        "rationale": "Only here do bases.arnoldi, solve_gmres/solve_cg and "
        "element construction (__add__/__rmul__) dominate: the write side of "
        "elements, beside the inner products the other workloads take "
        "against fixed bases. volterra and weighted-right-shift:pow:1,1 run "
        "to N_max without stopping early; mult-x with a > 0 converges in "
        "20-40 steps.",
    },
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "fresh interpreter: import hilbtrunc plus one warm-up op on "
     "inputs disjoint from the timed ones; median over the run's passes"},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2,
     "what": "wall time of the workload's whole op list; median over passes"},
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "median op latency over every op of every pass"},
    {"name": "op_p90_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "90th-percentile op latency over every op of every pass; only "
     "cli-suite holds the 100 ops that leave ten samples beyond it"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1,
     "what": "ru_maxrss of the worker that ran the op list; median over passes"},
]

# name -> (unit, moves, most work, little work)
PER_LAYER = [
    ("core.gauss_legendre.calls", "count", "wall_s, op_p50_s", "fourier-mixed",
     "legendre-dense, krylov"),
    ("core.gauss_legendre.self_s", "s", "wall_s, op_p50_s", "fourier-mixed",
     "legendre-dense, krylov"),
    ("elements.leg_osc_integral.calls", "count", "wall_s, peak_rss_mb",
     "fourier-mixed", "legendre-dense, cli-suite"),
    ("elements.leg_osc_integral.self_s", "s", "wall_s, peak_rss_mb",
     "fourier-mixed", "legendre-dense, cli-suite"),
    ("elements.iosc.calls", "count", "wall_s, peak_rss_mb", "fourier-mixed",
     "legendre-dense, cli-suite"),
    ("elements.inner.calls", "count", "wall_s, op_p90_s",
     "legendre-dense, cli-suite", "-"),
    ("elements.inner.self_s", "s", "wall_s, op_p90_s",
     "legendre-dense, cli-suite", "-"),
    ("elements.arith.calls", "count", "wall_s", "krylov", "fourier-mixed"),
    ("elements.arith.self_s", "s", "wall_s", "krylov", "fourier-mixed"),
    ("operators.apply.calls", "count", "wall_s", "krylov", "cli-suite"),
    ("operators.apply.self_s", "s", "wall_s", "krylov", "cli-suite"),
    ("bases.element.calls", "count", "wall_s", "legendre-dense", "krylov"),
    ("bases.generate.calls", "count", "wall_s", "legendre-dense", "krylov"),
    ("bases.element.hit_ratio", "ratio", "wall_s", "legendre-dense", "krylov"),
    ("bases.arnoldi.self_s", "s", "wall_s", "krylov", "others (zero)"),
    ("bases.adversarial_test_basis.self_s", "s", "op_p50_s", "cli-suite",
     "others (zero)"),
    ("truncation.compress.calls", "count", "wall_s, op_p90_s",
     "legendre-dense, fourier-mixed, cli-suite", "krylov (zero)"),
    ("truncation.compress.entries", "count", "wall_s, op_p90_s",
     "legendre-dense, fourier-mixed, cli-suite", "krylov (zero)"),
    ("truncation.compress.self_s", "s", "wall_s, op_p90_s",
     "legendre-dense, fourier-mixed, cli-suite", "krylov (zero)"),
    ("truncation.compress.n_exponent", "slope", "wall_s, op_p90_s",
     "legendre-dense, fourier-mixed, cli-suite", "krylov (zero)"),
    ("truncation.solve_direct.self_s", "s", "wall_s", "legendre-dense (N >= 320)",
     "fourier-mixed"),
    ("truncation.solve_direct.n_exponent", "slope", "wall_s",
     "legendre-dense (N >= 320)", "fourier-mixed"),
    ("core.qr_least_squares.calls", "count", "wall_s", "legendre-dense (N >= 320)",
     "fourier-mixed"),
    ("core.qr_least_squares.self_s", "s", "wall_s", "legendre-dense (N >= 320)",
     "fourier-mixed"),
    ("truncation.solve_gmres.self_s", "s", "wall_s", "krylov", "others"),
    ("truncation.solve_cg.self_s", "s", "wall_s", "krylov", "others"),
    ("truncation.lift.self_s", "s", "wall_s", "legendre-dense", "fourier-mixed"),
    ("diagnostics.evaluate.self_s", "s", "wall_s", "legendre-dense", "fourier-mixed"),
    ("diagnostics.evaluate.n_exponent", "slope", "wall_s", "legendre-dense",
     "fourier-mixed"),
    ("diagnostics.noise_series.self_s", "s", "op_p50_s", "cli-suite",
     "others (zero)"),
    ("diagnostics.law_tail_sq.calls", "count", "op_p50_s", "cli-suite",
     "others (zero)"),
    ("diagnostics.classify.self_s", "s", "op_p50_s", "cli-suite", "others (zero)"),
    ("cli.main.self_s", "s", "op_p50_s", "cli-suite", "legendre-dense"),
    ("trace.overhead_ratio", "ratio", "-", "all", "-"),
]

NOTES = {
    "client": "one closed-loop client per workload: each op is one "
    "hilbtrunc.cli.main([...]) call, sent when the previous one returned",
    "rescaled_times": "every time metric is a wall-clock time rescaled by how "
    "fast the shared machine ran a fixed reference kernel (worker.reference, "
    "no hilbtrunc code) while it was measured: latency * mean(1.25 ms / "
    "t_reference) over references timed just before the op, every 0.1 s "
    "during it (SIGALRM; probe time is subtracted) and just after it. "
    "Set-up uses the median of five references taken right after it. The "
    "machines this runs on drift by up to 1.5x within seconds as other "
    "tenants load them; measured raw, wall_s spread 15-45% (IQR/median) "
    "across runs, rescaled 1-5%. Unscaled wall times and every reference "
    "time are printed and kept in .perfbench/<workload>-seed<n>-trace<t>.json; "
    "traced passes take no probe samples",
    "passes": "a run repeats fresh-interpreter passes over the seed's op list "
    "until run_seconds is used (at least 3 passes; traced runs alternate "
    "untraced and traced passes, at least 2 of each)",
    "error_rate": "ops that raised, exited nonzero or failed their output "
    "check, over ops attempted; reported as the result's failed/attempted and "
    "printed as error_rate, not listed as a metric because it is 0 on a "
    "healthy tree and a metric must never read 0",
    "n_exponent": "least-squares slope of log(median inclusive time) against "
    "log(N) over the distinct N values of the traced pass; 0 with fewer than "
    "two distinct N",
    "elements.arith": "counts every call of Func/Seq __add__, __sub__, __rmul__ "
    "and elements.lincomb, nested calls included (one subtraction is three)",
    "self_s": "span duration minus the time its traced children cover, summed "
    "over the traced pass; leaves are aggregated per parent span",
    "trace.overhead_ratio": "median traced wall_s / median untraced wall_s of "
    "the same run",
}


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit,
             "better": "higher" if name.endswith("hit_ratio") else "lower"}
            for name, unit, *_ in PER_LAYER
        ],
    }


def design_json(reuse_shares):
    return {
        "workloads": [
            dict(w, **({"reuse_share": reuse_shares[w["name"]]}
                       if w["name"] in reuse_shares else {}))
            for w in WORKLOADS
        ],
        "end_to_end": END_TO_END,
        "predictions": [
            {"metric": name, "unit": unit, "moves": moves, "most_work": most,
             "little_work": little}
            for name, unit, moves, most, little in PER_LAYER
        ],
        "setup_s": "moved by the import graph on every workload: hilbtrunc/__init__ "
        "imports cli, and diagnostics pulls in scipy.integrate",
        "notes": NOTES,
        "environment": environment(),
    }


def write_spec(root: Path, reuse_shares):
    (root / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    (root / "perfbench" / "design.json").write_text(
        json.dumps(design_json(reuse_shares), indent=2) + "\n"
    )
