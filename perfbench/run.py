#!/usr/bin/env python3
"""Benchmark of hilbtrunc, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec        # rewrite BENCHMARK.json
    python3 perfbench/run.py --capture-digests   # re-record cli-suite goldens

A run builds the workload's op list from the seed, then repeats passes
over it until S seconds are used (at least three).  Each pass is a fresh
interpreter (`worker.py`) that imports hilbtrunc from `src/`, runs one
warm-up op and then every op as one closed-loop client.  After each pass
this process checks every op's outputs.  With `--trace 1` the passes
alternate untraced and traced (`tracer.py`) and the per-layer metrics
are reported instead of the end-to-end ones.  Every pass's samples, and
the spans of traced passes, are written to
`.perfbench/<workload>-seed<seed>-trace<0|1>.json`.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Exit code 2 when the checkout holds no hilbtrunc
sources, 1 when a pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # untraced and traced, alternating
RUN_LIMIT_S = 170.0  # a run never starts a pass it cannot end by then
REFERENCE_NOMINAL_S = 0.00125  # see rescale()


class PassError(Exception):
    pass


def worker_env():
    from spec import BLAS_THREADS

    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        PYTHONHASHSEED="0",
    )
    return env


def run_pass(passdir: Path, warm_op, ops, traced: bool, timeout: float):
    """Write the pass's inputs, run one worker and return its result."""
    for op in [warm_op, *ops]:
        for rel, text in op.files.items():
            path = passdir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    plan = {
        "src": str(SRC),
        "warmup": list(warm_op.argv),
        "ops": [list(op.argv) for op in ops],
        "trace": traced,
    }
    (passdir / "plan.json").write_text(json.dumps(plan))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "plan.json", "result.json"],
            cwd=passdir,
            env=worker_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads((passdir / "result.json").read_text())
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise PassError(f"imported hilbtrunc from {result['module']}, not {SRC}")
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from workloads import WORKLOADS, check_op

    generate, warmup = WORKLOADS[name]
    ops = generate(seed)
    warm_op = warmup()
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    results = []  # (traced, result)
    attempted = failed = 0
    failures = []
    start = time.monotonic()
    try:
        while True:
            traced = trace and len(results) % 2 == 1
            passdir = workdir / f"pass{len(results)}"
            passdir.mkdir(parents=True)
            t0 = time.monotonic()
            remaining = RUN_LIMIT_S - (t0 - start)
            result = run_pass(passdir, warm_op, ops, traced, remaining)
            pass_s = time.monotonic() - t0
            for i, (op, out) in enumerate(zip(ops, result["ops"])):
                attempted += 1
                reason = check_op(op, passdir, out["rc"], out["stdout"])
                if reason is not None:
                    failed += 1
                    failures.append(f"pass {len(results)} op{i} [{op.key}]: {reason}"
                                    + (f"\n{out['error']}" if out["error"] else ""))
            results.append((traced, rescale(result)))
            shutil.rmtree(passdir)
            elapsed = time.monotonic() - start
            need = MIN_TRACED_PASSES if trace else MIN_PASSES
            if len(results) >= need and elapsed + pass_s > seconds:
                break
            if elapsed + 1.5 * pass_s > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ops, results, attempted, failed, failures


def rescale(result):
    """Add machine-speed-rescaled times to a worker result.

    An op's speed is the mean of REFERENCE_NOMINAL_S / t over the
    reference times taken just before it, during it and just after it;
    its rescaled time is its latency times that speed.  Set-up uses the
    median of the references taken right after set-up.  Rescaled times
    read as seconds on a machine that runs the reference in
    REFERENCE_NOMINAL_S, and drift in the shared machine's speed cancels.
    """
    ref = result["reference_s"]
    result["scaled_latency_s"] = []
    for i, op in enumerate(result["ops"]):
        samples = [ref[i], *op["probe_s"], ref[i + 1]]
        speed = statistics.mean(REFERENCE_NOMINAL_S / t for t in samples)
        result["scaled_latency_s"].append(op["latency_s"] * speed)
    result["scaled_wall_s"] = sum(result["scaled_latency_s"])
    setup_ref = statistics.median(result["setup_reference_s"])
    result["scaled_setup_s"] = result["setup_s"] * REFERENCE_NOMINAL_S / setup_ref
    result["speed"] = REFERENCE_NOMINAL_S / statistics.median(ref)
    result["wall_s"] = sum(op["latency_s"] for op in result["ops"])
    return result


def end_to_end(results):
    plain = [r for traced, r in results if not traced]
    latencies = [x for r in plain for x in r["scaled_latency_s"]]
    return {
        "setup_s": statistics.median(r["scaled_setup_s"] for _, r in results),
        "wall_s": statistics.median(r["scaled_wall_s"] for r in plain),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }, len(latencies)


def per_layer(ops, results):
    """Per-layer metrics, median over traced passes; times rescaled per pass."""
    from tracer import layer_metrics

    replays = {i for i, op in enumerate(ops) if op.replays_memo}
    traced = []
    for t, r in results:
        if t:
            m = layer_metrics(r["spans"], replays)
            traced.append({k: v * r["speed"] if k.endswith("_s") else v
                           for k, v in m.items()})
    out = {key: statistics.median_low(m[key] for m in traced) for key in traced[0]}
    out["trace.overhead_ratio"] = statistics.median(
        r["scaled_wall_s"] for t, r in results if t
    ) / statistics.median(r["scaled_wall_s"] for t, r in results if not t)
    return out


def write_samples(name, seed, trace, ops, results):
    """Keep every pass's raw samples (and spans, when traced) for later study."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{name}-seed{seed}-trace{int(trace)}.json"
    doc = {
        "workload": name,
        "seed": seed,
        "ops": [op.key for op in ops],
        "passes": [
            {
                "traced": t,
                "setup_s": r["setup_s"],
                "setup_reference_s": r["setup_reference_s"],
                "reference_s": r["reference_s"],
                "peak_rss_mb": r["peak_rss_mb"],
                "latency_s": [op["latency_s"] for op in r["ops"]],
                "probe_s": [op["probe_s"] for op in r["ops"]],
                "spans": r["spans"],
            }
            for t, r in results
        ],
    }
    path.write_text(json.dumps(doc))
    return path


def benchmark(args):
    from spec import END_TO_END, PER_LAYER

    ops, results, attempted, failed, failures = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for line in failures[:20]:
        sys.stderr.write(line + "\n")
    units = {m["name"]: m["unit"] for m in END_TO_END}
    units.update({name: unit for name, unit, *_ in PER_LAYER})
    path = write_samples(args.workload, args.seed, args.trace, ops, results)
    print(f"samples{' and spans' if args.trace else ''} written to {path}")
    if args.trace:
        values = per_layer(ops, results)
    else:
        values, samples = end_to_end(results)
        print(f"op latency samples: {samples} over {len(results)} passes")
        print("unscaled wall_s per pass: "
              + " ".join(f"{r['wall_s']:.4f}" for _, r in results))
        print("machine speed per pass (reference): "
              + " ".join(f"{r['speed']:.3f}" for _, r in results))
    print(f"error_rate = {failed / attempted} ({failed} of {attempted} ops)")
    for key, value in values.items():
        print(f"{key} = {value} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def capture_digests():
    """Record the SHA-256 of every cli-suite output at the current tree."""
    from workloads import CLI_ROUND, GOLDEN_PATH, cli_op, sha256, warm_cli_suite

    ops = [cli_op(i, key, argv, outputs, {}) for i, (key, argv, outputs)
           in enumerate(CLI_ROUND)]
    passdir = WORK / f"capture-{os.getpid()}"
    passdir.mkdir(parents=True)
    try:
        result = run_pass(passdir, warm_cli_suite(), ops, False, RUN_LIMIT_S)
        golden = {}
        for op, out in zip(ops, result["ops"]):
            if out["rc"] != 0:
                raise PassError(f"{op.key} exited {out['rc']}: {out['error']}")
            digests = {
                Path(rel).name: sha256(
                    out["stdout"].encode() if rel == "stdout"
                    else (passdir / rel).read_bytes()
                )
                for rel in op.check["files"]
            }
            if golden.setdefault(op.key, digests) != digests:
                raise PassError(f"{op.key} is not byte-deterministic")
    finally:
        shutil.rmtree(passdir, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


def write_spec():
    from spec import write_spec as write
    from workloads import WORKLOADS, reuse_share

    shares = {
        name: statistics.mean(reuse_share(gen(seed)) for seed in range(10))
        for name, (gen, _) in WORKLOADS.items()
        if name != "cli-suite"
    }
    write(ROOT, shares)
    print(f"wrote {ROOT / 'BENCHMARK.json'} and {HERE / 'design.json'}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--capture-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "hilbtrunc" / "__init__.py").is_file():
        sys.stderr.write(f"no hilbtrunc sources under {SRC}: run from a checkout\n")
        return 2
    sys.path.insert(0, str(HERE))
    try:
        if args.write_spec:
            return write_spec()
        if args.capture_digests:
            return capture_digests()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
        return benchmark(args)
    except PassError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
