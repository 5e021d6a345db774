"""Tests of the benchmark itself: generators, output checks, tracer, spec.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec
import tracer as tracer_mod
from tracer import Tracer, layer_metrics, n_exponent
from workloads import WORKLOADS, check_op, gen_fourier_mixed, reuse_share

ROOT = Path(__file__).resolve().parents[2]


def run_op(op, passdir):
    """Run one op in-process the way the worker does; returns (rc, stdout)."""
    from hilbtrunc import cli

    for rel, text in op.files.items():
        (passdir / rel).parent.mkdir(parents=True, exist_ok=True)
        (passdir / rel).write_text(text)
    out = io.StringIO()
    with contextlib.chdir(passdir), contextlib.redirect_stdout(out):
        rc = cli.main(list(op.argv))
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    generate, warmup = WORKLOADS[name]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)
    assert warmup() == warmup()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seed_does_the_same_work(name):
    generate, _ = WORKLOADS[name]
    kinds = [sorted(op.key for op in generate(seed)) for seed in range(4)]
    if name != "fourier-mixed":  # there the reused ops draw their N
        assert all(k == kinds[0] for k in kinds)
    assert len({len(k) for k in kinds}) == 1


def test_fourier_mixed_reuse_share():
    for seed in range(10):
        ops = gen_fourier_mixed(seed)
        assert reuse_share(ops) == 3 / 11
        assert sum(op.replays_memo for op in ops) == 3


def test_warmup_inputs_disjoint_from_timed_ops():
    for name, (generate, warmup) in WORKLOADS.items():
        warm_text = "".join(warmup().files.values())
        warm_operator = re.search(r"operator = (\S+)", warm_text).group(1)
        for op in generate(3):
            assert warm_operator not in "".join(op.files.values())


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _largest_by_one_digit(cell):
    """The cell with one digit changed so that its value is as large as possible."""
    candidates = [
        cell[:i] + d + cell[i + 1:]
        for i, ch in enumerate(cell) if ch.isdigit()
        for d in "0123456789" if d != ch
    ]
    return max(candidates, key=float)


def _corrupt_cell(csv_path, column):
    """Flip one digit of `column` in the last data row, making it larger."""
    lines = csv_path.read_text().splitlines()
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    col = lines[data[0]].split(",").index(column)
    cells = lines[data[-1]].split(",")
    cells[col] = _largest_by_one_digit(cells[col])
    lines[data[-1]] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")


def _pick(ops, predicate):
    return next(op for op in ops if predicate(op))


def test_digest_check_rejects_a_flipped_digit(tmp_path):
    op = _pick(WORKLOADS["cli-suite"][0](0), lambda op: op.key == "run volterra-g1")
    rc, out = run_op(op, tmp_path)
    assert check_op(op, tmp_path, rc, out) is None
    _corrupt_cell(tmp_path / next(iter(op.check["files"])), "res_c_10")
    assert check_op(op, tmp_path, rc, out) is not None


def test_stdout_digest_check_rejects_changed_output(tmp_path):
    op = _pick(WORKLOADS["cli-suite"][0](0), lambda op: op.key == "list-presets")
    rc, out = run_op(op, tmp_path)
    assert check_op(op, tmp_path, rc, out) is None
    assert check_op(op, tmp_path, rc, out.replace("1.2021", "1.2022")) is not None


CASES = [
    # workload, op key prefix, column the check reads
    ("legendre-dense", "legendre/mult-x/N160", "sol_norm"),
    ("legendre-dense", "legendre/volterra/N160", "sol_norm"),
    ("fourier-mixed", "mixed/legendre-fourier/N10", "err_norm"),
    ("fourier-mixed", "mixed/fourier-legendre/N10", "eps_norm"),
    ("krylov", "krylov/weighted-right-shift/gmres", "res_norm"),
    ("krylov", "krylov/volterra/gmres/N240", "res_norm"),
    ("krylov", "krylov/mult-x/gmres", "res_norm"),
    ("krylov", "krylov/mult-x/cg", "res_norm"),
]


@pytest.mark.parametrize("workload,key,column", CASES)
def test_numeric_check_rejects_a_flipped_digit(tmp_path, workload, key, column):
    op = _pick(WORKLOADS[workload][0](0), lambda op: op.key.startswith(key))
    rc, out = run_op(op, tmp_path)
    assert check_op(op, tmp_path, rc, out) is None
    _corrupt_cell(tmp_path / op.check["csv"], column)
    assert check_op(op, tmp_path, rc, out) is not None


def test_nonzero_exit_fails_the_check(tmp_path):
    op = WORKLOADS["krylov"][0](0)[0]
    assert check_op(op, tmp_path, 2, "") is not None


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def _traced_attributes():
    """Every (owner, name) -> object the tracer could rebind."""
    import hilbtrunc.cli  # noqa: F401

    snapshot = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "hilbtrunc" or mod_name.startswith("hilbtrunc.")):
            for key, value in vars(mod).items():
                snapshot[(mod_name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        snapshot[(mod_name, key, attr)] = member
    return snapshot


def test_install_and_uninstall_restore_every_attribute():
    before = _traced_attributes()
    t = Tracer()
    t.install()
    try:
        during = _traced_attributes()
        changed = {k for k in before if during[k] is not before[k]}
        # compress is bound in truncation, diagnostics, cli and the package
        for mod in ("hilbtrunc", "hilbtrunc.truncation", "hilbtrunc.cli",
                    "hilbtrunc.diagnostics"):
            assert (mod, "compress") in changed
        assert ("hilbtrunc.elements", "gauss_legendre") in changed
        assert ("hilbtrunc.elements", "Func", "inner") in changed
        assert ("hilbtrunc.bases", "OrthonormalBasis", "element") in changed
        assert ("hilbtrunc.operators", "Volterra", "apply") in changed
    finally:
        t.uninstall()
    after = _traced_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_op_reports_every_layer_metric(tmp_path):
    op = WORKLOADS["fourier-mixed"][0](0)[0]
    with Tracer() as t:
        t.begin_op(0)
        rc, _ = run_op(op, tmp_path)
        t.end_op()
    assert rc == 0
    spans = [s.as_dict() for s in t.spans]
    metrics = layer_metrics(spans)
    names = {name for name, *_ in spec.PER_LAYER} - {"trace.overhead_ratio"}
    assert set(metrics) == names
    assert metrics["truncation.compress.calls"] == 1
    assert metrics["core.gauss_legendre.calls"] > 0
    assert metrics["cli.main.self_s"] > 0
    for s in spans:  # self time never exceeds the span's duration
        assert -1e-9 <= s["self_s"] <= s["end"] - s["start"] + 1e-9
    json.dumps(spans)


def test_n_exponent_recovers_a_power_law():
    points = [(n, 3e-6 * n ** 2.5) for n in (10, 20, 40, 80)]
    assert n_exponent(points) == pytest.approx(2.5)
    assert n_exponent([(10, 1.0), (10, 2.0)]) == 0.0


def test_span_targets_exist():
    import hilbtrunc.cli  # noqa: F401

    for module, attr in [*tracer_mod.SPAN_FUNCTIONS.values(),
                         *tracer_mod.LEAF_FUNCTIONS.values()]:
        assert callable(getattr(sys.modules[module], attr))


# ---------------------------------------------------------------------------
# BENCHMARK.json and the contract
# ---------------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_benchmark_json_within_limits():
    doc = spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 6) < 3420


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "krylov", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
