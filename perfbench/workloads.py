"""Seeded op lists for the benchmark workloads, and the output checks.

An op is one `hilbtrunc.cli.main(argv)` call.  Its config files are
generated here from the workload seed and written to disk before the
worker starts, so the library only ever sees config text in the
grammar the README documents.  Paths in `argv` and `files` are relative
to the pass directory the worker runs in; each op owns the
subdirectory `op<index>/`.

Every workload's op list is a fixed amount of work: the seed draws
intervals, polynomials, order and (for `fourier-mixed`) which ops reuse
an earlier interval, while the sizes come from a fixed grid.  That keeps
run-to-run spread down to the machine's own noise.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_digests.json"


@dataclass(frozen=True)
class Op:
    key: str  # what the op is, independent of seed and position
    argv: tuple
    files: dict = field(default_factory=dict)  # relative path -> text
    check: dict = field(default_factory=dict)  # see check_op()
    replays_memo: bool = False  # repeats the memo keys of an earlier op


# ---------------------------------------------------------------------------
# config text
# ---------------------------------------------------------------------------

def _num(x) -> str:
    return repr(float(x))


def _poly(coeffs) -> str:
    return "poly:" + ",".join(_num(c) for c in coeffs)


def config_text(operator, datum, trial, test, n_list, solver="qr", exact=None):
    lines = ["[problem]", f"operator = {operator}", f"datum = {datum}"]
    if exact is not None:
        lines.append(f"exact_solution = {exact}")
    lines += [
        "[truncation]",
        f"trial = {trial}",
        f"test = {test}",
        f"n_list = {','.join(str(n) for n in n_list)}",
        f"solver = {solver}",
        "[output]",
        "csv = out.csv",
    ]
    return "\n".join(lines) + "\n"


def _random_poly(rng, max_degree=4):
    """Monomial coefficients +-k/4, 1 <= k <= 8, all nonzero.

    Zero coefficients change how much work an op does (a Krylov sweep on
    a datum with no low-order terms runs about twice as fast), so every
    coefficient is nonzero and seeds differ only in values.
    """
    degree = rng.randint(1, max_degree)
    return [rng.choice([-1, 1]) * rng.randint(1, 8) / 4 for _ in range(degree + 1)]


def _datum(operator, f):
    """Monomial coefficients of A f for volterra and mult-x."""
    if operator == "volterra":
        return [0.0] + [c / (k + 1) for k, c in enumerate(f)]
    return [0.0] + list(f)  # mult-x: x f(x)


def _grid_interval(rng, lo, hi, wmin, wmax, step=1 / 16):
    """Interval [a, a+w] on a 1/16 grid (exact binary fractions)."""
    a = rng.randint(round(lo / step), round(hi / step)) * step
    w = rng.randint(round(wmin / step), round(wmax / step)) * step
    return a, a + w


def poly_norm(coeffs, a, b) -> float:
    """L2[a,b] norm of a real polynomial, by exact polynomial integration."""
    p = np.polynomial.Polynomial(coeffs)
    q = (p * p).integ()
    return math.sqrt(q(b) - q(a))


def _sweep_op(index, key, operator, f, trial, test, n_list, check, solver="qr",
              replays_memo=False):
    d = f"op{index}"
    text = config_text(
        operator,
        _poly(_datum(operator.partition(":")[0], f)) if f else "basis-e:1",
        trial,
        test,
        n_list,
        solver=solver,
        exact=_poly(f) if f else None,
    )
    return Op(
        key=key,
        argv=("run", f"{d}/config.ini", "--out", f"{d}/out.csv"),
        files={f"{d}/config.ini": text},
        check=dict(check, csv=f"{d}/out.csv", rows=len(n_list)),
        replays_memo=replays_memo,
    )


def _warmup(trial, test, n_list, solver="qr"):
    """Small mult-x op on [6, 7], an interval no timed op uses (disjoint memo keys)."""
    return _sweep_op("-warmup", "warmup", "mult-x:6.0,7.0", [0.5, -1.0, 0.25],
                     trial, test, n_list, {"kind": "rc"}, solver=solver)


# ---------------------------------------------------------------------------
# cli-suite: the README's commands
# ---------------------------------------------------------------------------

# The README's config-grammar example with its comments removed.
MY_EXPERIMENT_INI = """\
[problem]
operator = volterra
datum = poly:0,0,0.5
exact_solution = poly:0,1
[truncation]
trial = legendre
test = legendre
n_list = 2,4,10,20
solver = qr
tol = 1e-10
solution_family = min-norm
[output]
csv = out.csv
tracked = 1,2,3,5,10
"""

# One round: the README's seven CLI commands, then one `run` per preset
# (so `run volterra-g1` occurs twice).  key -> (argv template, outputs);
# "{d}" is the op directory, "stdout" names the captured standard output.
CLI_ROUND = [
    ("list-presets", ("list-presets",), ("stdout",)),
    ("run volterra-g1", ("run", "volterra-g1", "--out", "{d}/volterra-g1.csv"),
     ("volterra-g1.csv",)),
    ("run mult-g2 --solver gmres",
     ("run", "mult-g2", "--solver", "gmres", "--tol", "1e-10",
      "--n-list", "1,2,5,10,20,50", "--out", "{d}/mult-g2.csv"),
     ("mult-g2.csv",)),
    ("run my-experiment.ini --gnuplot",
     ("run", "{d}/my-experiment.ini", "--out", "{d}/results.csv", "--gnuplot"),
     ("results.csv", "results.csv.gp")),
    ("demo bad-truncation", ("demo", "bad-truncation", "--out",
                             "{d}/bad-truncation-report.txt"),
     ("bad-truncation-report.txt",)),
    ("demo pathological-family", ("demo", "pathological-family", "--out",
                                  "{d}/pathological-family-report.txt"),
     ("pathological-family-report.txt",)),
    ("demo shift-weak-residual", ("demo", "shift-weak-residual", "--out",
                                  "{d}/shift-weak-residual-report.txt"),
     ("shift-weak-residual-report.txt",)),
    ("run volterra-g1", ("run", "volterra-g1", "--out", "{d}/volterra-g1.csv"),
     ("volterra-g1.csv",)),
    ("run mult-g2", ("run", "mult-g2", "--out", "{d}/mult-g2.csv"), ("mult-g2.csv",)),
    ("run noise-example-6.2", ("run", "noise-example-6.2", "--out",
                               "{d}/noise-example-6.2.csv"),
     ("noise-example-6.2.csv",)),
    ("run noise-fig1", ("run", "noise-fig1", "--out", "{d}/noise-fig1.csv"),
     ("noise-fig1.csv",)),
]

CLI_ROUNDS = 4


def cli_op(index, key, argv, outputs, golden):
    d = f"op{index}"
    files = {}
    if "{d}/my-experiment.ini" in argv:
        files[f"{d}/my-experiment.ini"] = MY_EXPERIMENT_INI
    paths = {name: (f"{d}/{name}" if name != "stdout" else "stdout") for name in outputs}
    return Op(
        key=key,
        argv=tuple(a.replace("{d}", d) for a in argv),
        files=files,
        check={
            "kind": "digest",
            "files": {paths[name]: golden.get(key, {}).get(name) for name in outputs},
        },
    )


def load_golden():
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def gen_cli_suite(seed):
    rng = random.Random(f"cli-suite:{seed}")
    golden = load_golden()
    ops = []
    for _ in range(CLI_ROUNDS):
        round_ = list(CLI_ROUND)
        rng.shuffle(round_)
        for key, argv, outputs in round_:
            ops.append(cli_op(len(ops), key, argv, outputs, golden))
    return ops


def warm_cli_suite():
    return _warmup("legendre", "legendre", (2, 4, 8, 16))


# ---------------------------------------------------------------------------
# legendre-dense: Legendre pair, QR, large N
# ---------------------------------------------------------------------------

DENSE_N_MAX = (160, 320, 640)


def gen_legendre_dense(seed):
    rng = random.Random(f"legendre-dense:{seed}")
    specs = []
    for n_max in DENSE_N_MAX:
        for operator in ("volterra", "mult-x"):
            if operator == "mult-x":
                a, b = _grid_interval(rng, 0.5, 1.5, 0.75, 2.0)
                operator = f"mult-x:{_num(a)},{_num(b)}"
            else:
                a, b = 0.0, 1.0
            specs.append((n_max, operator, _random_poly(rng), (a, b)))
    rng.shuffle(specs)
    ops = []
    for n_max, operator, f, (a, b) in specs:
        n_list = [n_max * k // 8 for k in range(1, 9)]
        ops.append(_sweep_op(
            len(ops), f"legendre/{operator.partition(':')[0]}/N{n_max}", operator, f,
            "legendre", "legendre", n_list,
            {"kind": "sol_norm", "norm": poly_norm(f, a, b), "tol": 1e-6},
        ))
    return ops


def warm_legendre_dense():
    return _warmup("legendre", "legendre", (10, 20, 40))


# ---------------------------------------------------------------------------
# fourier-mixed: Legendre/Fourier Petrov-Galerkin pairs, small N
# ---------------------------------------------------------------------------

MIXED_N_MAX = (10, 16, 22, 28)
MIXED_PAIRS = (("legendre", "fourier"), ("fourier", "legendre"))
MIXED_REUSE = 3  # of 11 ops reuse an earlier op's interval


def _mixed_check(trial, f):
    if trial == "legendre":
        return {"kind": "err_norm", "tol": 1e-9, "above_n": len(f) - 1}
    return {"kind": "eps_norm", "tol": 1e-8}


def gen_fourier_mixed(seed):
    rng = random.Random(f"fourier-mixed:{seed}")
    cold = []
    used = set()
    for n_max in MIXED_N_MAX:
        for trial, test in MIXED_PAIRS:
            interval = _grid_interval(rng, 0.5, 1.5, 0.75, 2.0)
            while interval in used:
                interval = _grid_interval(rng, 0.5, 1.5, 0.75, 2.0)
            used.add(interval)
            cold.append({"n_max": n_max, "pair": (trial, test), "interval": interval,
                         "reuse": False})
    rng.shuffle(cold)
    specs = list(cold)
    # each reused op repeats an earlier sweep's interval and basis pair up to
    # a smaller or equal N, with a fresh polynomial
    for source in rng.sample(cold, MIXED_REUSE):
        pos = rng.randint(specs.index(source) + 1, len(specs))
        specs.insert(pos, {"n_max": rng.randint(10, source["n_max"]),
                           "pair": source["pair"], "interval": source["interval"],
                           "reuse": True})
    ops = []
    for s in specs:
        trial, test = s["pair"]
        a, b = s["interval"]
        f = _random_poly(rng, max_degree=3)
        n_max = s["n_max"]
        n_list = sorted({max(2, n_max // 4), n_max // 2, n_max})
        ops.append(_sweep_op(
            len(ops), f"mixed/{trial}-{test}/N{n_max}" + ("/reuse" if s["reuse"] else ""),
            f"mult-x:{_num(a)},{_num(b)}", f, trial, test, n_list,
            _mixed_check(trial, f), replays_memo=s["reuse"],
        ))
    return ops


def warm_fourier_mixed():
    return _warmup("fourier", "legendre", (4, 8))


def reuse_share(ops):
    """Share of ops whose operator, and so interval, an earlier op already used."""
    seen = set()
    reused = 0
    for op in ops:
        text = next(iter(op.files.values()))
        operator = text.split("operator = ")[1].splitlines()[0]
        reused += operator in seen
        seen.add(operator)
    return reused / len(ops)


# ---------------------------------------------------------------------------
# krylov: GMRES / CG over Krylov bases
# ---------------------------------------------------------------------------

KRYLOV_N_MAX = (240, 280)  # for the sweeps that never stop early
KRYLOV_CONVERGING_N_MAX = 60


def gen_krylov(seed):
    rng = random.Random(f"krylov:{seed}")
    specs = []
    for n_max in KRYLOV_N_MAX:
        specs.append(("volterra", "gmres", _random_poly(rng), n_max,
                      {"kind": "gmres", "monotone": True}))
        specs.append(("weighted-right-shift:pow:1,1", "gmres", None, n_max,
                      {"kind": "gmres", "monotone": True, "res_exact": 1.0}))
    for solver in ("gmres", "gmres", "cg"):
        a, b = _grid_interval(rng, 0.4, 1.0, 1.0, 1.5)
        check = {"kind": solver, "final_res_max": 1e-8}
        if solver == "gmres":
            check["monotone"] = True
        specs.append((f"mult-x:{_num(a)},{_num(b)}", solver, _random_poly(rng),
                      KRYLOV_CONVERGING_N_MAX, check))
    rng.shuffle(specs)
    ops = []
    for operator, solver, f, n_max, check in specs:
        n_list = [n_max * k // 8 for k in (1, 2, 4, 8)]
        ops.append(_sweep_op(
            len(ops), f"krylov/{operator.partition(':')[0]}/{solver}/N{n_max}",
            operator, f, "krylov", "krylov", n_list, check, solver=solver,
        ))
    return ops


def warm_krylov():
    return _warmup("krylov", "krylov", (4, 8, 16), solver="gmres")


WORKLOADS = {
    "cli-suite": (gen_cli_suite, warm_cli_suite),
    "legendre-dense": (gen_legendre_dense, warm_legendre_dense),
    "fourier-mixed": (gen_fourier_mixed, warm_fourier_mixed),
    "krylov": (gen_krylov, warm_krylov),
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_csv_rows(path: Path):
    """Data rows of a hilbtrunc truncation CSV as dicts of float-or-None."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header {len(header)}")
        rows.append({h: (float(c) if c else None) for h, c in zip(header, cells)})
    return rows


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_op(op: Op, passdir: Path, rc, stdout: str):
    """None if the op's outputs are right, else the reason they are not."""
    if rc != 0:
        return f"exit code {rc}"
    spec = op.check
    kind = spec["kind"]
    try:
        if kind == "rc":
            return None
        if kind == "digest":
            for name, want in spec["files"].items():
                data = stdout.encode() if name == "stdout" else (passdir / name).read_bytes()
                got = sha256(data)
                if got != want:
                    return f"{name}: sha256 {got} != golden {want}"
            return None
        rows = read_csv_rows(passdir / spec["csv"])
        if kind in ("sol_norm", "err_norm", "eps_norm") and len(rows) != spec["rows"]:
            return f"{len(rows)} rows, expected {spec['rows']}"
        if kind == "sol_norm":
            got = rows[-1]["sol_norm"]
            if not abs(got - spec["norm"]) <= spec["tol"]:
                return f"sol_norm {got!r} vs |f| = {spec['norm']!r}"
            return None
        if kind == "err_norm":
            for r in rows:
                if r["N"] > spec["above_n"] and not r["err_norm"] <= spec["tol"]:
                    return f"N={int(r['N'])}: err_norm {r['err_norm']!r} > {spec['tol']}"
            return None
        if kind == "eps_norm":
            for r in rows:
                if not r["eps_norm"] <= spec["tol"]:
                    return f"N={int(r['N'])}: eps_norm {r['eps_norm']!r} > {spec['tol']}"
            return None
        if kind in ("gmres", "cg"):
            res = [r["res_norm"] for r in rows]
            if not res:
                return "no rows"
            if spec.get("monotone"):
                for n, (r0, r1) in enumerate(zip(res, res[1:])):
                    if not r1 <= r0:
                        return f"res_norm rises at row {n + 1}: {r0!r} -> {r1!r}"
            if "res_exact" in spec and any(r != spec["res_exact"] for r in res):
                return f"res_norm differs from {spec['res_exact']!r}: {res}"
            if "final_res_max" in spec and not res[-1] <= spec["final_res_max"]:
                return f"final res_norm {res[-1]!r} > {spec['final_res_max']}"
            if "final_res_max" not in spec and len(rows) != spec["rows"]:
                return f"stopped early: {len(rows)} rows, expected {spec['rows']}"
            return None
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    raise ValueError(f"unknown check kind {kind!r}")
