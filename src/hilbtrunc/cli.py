"""Configuration-driven experiment runner.

Reproduces the model experiments as CSV series and runs the
demonstration suites (singular truncations, pathological solution
families, weak-only residual vanishing).  Configs are flat sectioned
key = value text; see the README for the grammar.  Output is
byte-deterministic: a config always produces the same CSV.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .core import CapabilityError, ConfigError, SpaceMismatchError, singular_values
from .elements import Func, Seq
from .operators import BoundedOperator, parse_law, parse_operator
from .bases import (
    adversarial_test_basis,
    canonical_basis,
    fourier_basis,
    krylov_basis,
    legendre_basis,
    svd_bases,
)
from .truncation import (
    SOLUTION_FAMILIES,
    compress,
    solve_cg,
    solve_direct,
    solve_gmres,
)
from .diagnostics import (
    DEFAULT_TRACKED,
    NoiseModel,
    classify,
    evaluate,
    noise_series,
)

KRYLOV_CONVENTION = "residual-minimization"
SOLVERS = ("qr", "gmres", "cg")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class ProblemConfig:
    operator: str
    datum: str
    exact_solution: Optional[str] = None


@dataclass(frozen=True, kw_only=True)
class TruncationConfig:
    trial: str
    test: Optional[str] = None  # None: the trial basis
    n_list: tuple
    solver: str = "qr"
    tol: float = 1e-10
    solution_family: str = "min-norm"

    def __post_init__(self):
        if self.test is None:
            object.__setattr__(self, "test", self.trial)
        n = self.n_list
        if not n or any(b <= a for a, b in zip(n, n[1:])):
            raise ConfigError(f"n_list must be strictly increasing, got {n}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.solution_family not in SOLUTION_FAMILIES:
            raise ConfigError(f"unknown solution_family {self.solution_family!r}")
        if not self.tol >= 0:  # NaN fails too
            raise ConfigError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True, kw_only=True)
class NoiseConfig:
    sigma_law: str
    g_law: str
    nu_law: str
    n_max: int = 1000


@dataclass(frozen=True, kw_only=True)
class OutputConfig:
    csv: str
    tracked: tuple = DEFAULT_TRACKED
    gnuplot: bool = False


SECTIONS = {
    "problem": ProblemConfig,
    "truncation": TruncationConfig,
    "noise": NoiseConfig,
    "output": OutputConfig,
}


def _index_tuple(raw: str) -> tuple:
    """Comma-separated basis indices; each must be >= 1."""
    vals = tuple(int(v) for v in raw.split(",") if v.strip())
    if any(v < 1 for v in vals):
        raise ValueError(f"entries must be >= 1, got {vals}")
    return vals


def _yes_no(raw: str) -> bool:
    value = raw.strip().lower()
    if value not in ("yes", "true", "1", "no", "false", "0"):
        raise ValueError("expected yes or no")
    return value in ("yes", "true", "1")


# readers of the keys whose values are not strings
_READERS = {
    "n_list": _index_tuple,
    "tracked": _index_tuple,
    "tol": float,
    "n_max": int,
    "gnuplot": _yes_no,
}


def _read_value(where: str, key: str, raw: str):
    try:
        return _READERS.get(key, str)(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {raw!r} ({exc})") from exc


def _text(value) -> str:
    """A key's value as config text, read back by `_read_value`."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _read_section(name: str, section):
    """A section's keys as the fields of its dataclass declare them."""
    declared = {f.name: f for f in fields(SECTIONS[name])}
    unknown = sorted(set(section) - declared.keys())
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {unknown}")
    for key, f in declared.items():
        if key not in section and f.default is MISSING:
            raise ConfigError(f"missing key {key!r} in section [{name}]")
    values = {key: _read_value(f"{name}.{key}", key, raw) for key, raw in section.items()}
    return SECTIONS[name](**values)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: Optional[ProblemConfig]
    truncation: Optional[TruncationConfig]
    noise: Optional[NoiseConfig]
    output: OutputConfig

    def __post_init__(self):
        if self.output is None:
            raise ConfigError("missing [output] section")
        if (self.problem is None) == (self.noise is None):
            raise ConfigError("config needs exactly one of [problem] and [noise]")
        if (self.problem is None) != (self.truncation is None):
            raise ConfigError("a [truncation] section goes with a [problem] section")

    def to_text(self) -> str:
        """Canonical config serialization (round-trips through from_text)."""
        out = []
        for name in SECTIONS:
            section = getattr(self, name)
            if section is None:
                continue
            out.append(f"[{name}]")
            for f in fields(section):
                value = getattr(section, f.name)
                if value is not None:
                    out.append(f"{f.name} = {_text(value)}")
        return "\n".join(out) + "\n"

    @staticmethod
    def from_text(text: str) -> "ExperimentConfig":
        # no [DEFAULT] key sharing: such a section is reported as unknown
        parser = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=(";",), default_section=None
        )
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config parse failure: {exc}") from exc
        unknown = set(parser.sections()) - SECTIONS.keys()
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        return ExperimentConfig(
            **{
                name: _read_section(name, parser[name]) if name in parser else None
                for name in SECTIONS
            }
        )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

PRESETS = {
    "volterra-g1": ExperimentConfig(
        problem=ProblemConfig(
            operator="volterra", datum="poly:0,0,0.5", exact_solution="poly:0,1"
        ),
        truncation=TruncationConfig(
            trial="legendre",
            test="legendre",
            n_list=(2, 4, 6, 8, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100),
        ),
        noise=None,
        output=OutputConfig(csv="volterra-g1.csv"),
    ),
    "mult-g2": ExperimentConfig(
        problem=ProblemConfig(
            operator="mult-x:1,2", datum="poly:0,0,1", exact_solution="poly:0,1"
        ),
        truncation=TruncationConfig(
            trial="legendre",
            test="legendre",
            n_list=(3, 4, 6, 8, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100),
        ),
        noise=None,
        output=OutputConfig(csv="mult-g2.csv"),
    ),
    "noise-example-6.2": ExperimentConfig(
        problem=None,
        truncation=None,
        noise=NoiseConfig(
            sigma_law="pow:1,1", g_law="pow:1,2", nu_law="pow:1,1.5", n_max=2000
        ),
        output=OutputConfig(csv="noise-example-6.2.csv"),
    ),
    "noise-fig1": ExperimentConfig(
        problem=None,
        truncation=None,
        noise=NoiseConfig(
            sigma_law="pow:1,1", g_law="pow:1,2", nu_law="pow:0.4,1.5", n_max=200
        ),
        output=OutputConfig(csv="noise-fig1.csv"),
    ),
}

PRESET_NOTES = {
    "volterra-g1": "integration operator on [0,1], datum x^2/2, exact solution x "
    "(solution norm 1/sqrt(3) ~ 0.5774); Legendre trial/test, QR solver",
    "mult-g2": "multiplication by x on [1,2], datum x^2, exact solution x "
    "(solution norm sqrt(7/3) ~ 1.5275); Legendre trial/test, QR solver",
    "noise-example-6.2": "singular-frame noise summation with sigma_n = 1/n, "
    "g_n = 1/n^2, nu_n = n^(-3/2) (residual plateau ~1.2021)",
    "noise-fig1": "same frame with nu_n = 0.4 n^(-3/2); the error series has an "
    "interior minimum (semiconvergence)",
}

def list_presets() -> str:
    """Human-readable listing of experiment presets and demos."""
    lines = ["experiment presets:"]
    for name in PRESETS:
        lines.append(f"  {name:20s} {PRESET_NOTES[name]}")
    lines.append("demos:")
    for name in DEMOS:
        lines.append(f"  {name}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# element and basis construction
# ---------------------------------------------------------------------------

def _build_operator(text: str) -> BoundedOperator:
    try:
        return parse_operator(text)
    except ValueError as exc:
        raise ConfigError(f"bad operator spec {text!r}: {exc}") from exc


def _build_law(text: str):
    try:
        return parse_law(text)
    except ValueError as exc:
        raise ConfigError(f"bad law spec {text!r}: {exc}") from exc


def parse_element(text: str, op: BoundedOperator):
    """Build a datum/solution element from its config string."""
    head, _, rest = text.partition(":")
    seq_space = op.space[0] == "seq"
    if head == "zero":
        return Seq.zero(op.space[1]) if seq_space else Func.zero(op.space[1])
    if head == "poly":
        if seq_space:
            raise ConfigError("poly datum needs a function-space operator")
        try:
            coeffs = [float(v) for v in rest.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad poly spec {text!r}") from exc
        if not all(map(math.isfinite, coeffs)):
            raise ConfigError(f"bad poly spec {text!r}: coefficients must be finite")
        return Func.from_poly(op.space[1], coeffs)
    if head == "basis-e":
        if not seq_space:
            raise ConfigError("basis-e datum needs a sequence-space operator")
        try:
            return Seq.basis_vector(int(rest), op.space[1])
        except ValueError as exc:
            raise ConfigError(f"bad basis-e spec {text!r}: {exc}") from exc
    if head == "func":
        if seq_space:
            raise ConfigError("func datum needs a function-space operator")
        if rest == "one":
            return Func.from_poly(op.space[1], [1.0])
        raise ConfigError(f"unknown func preset {rest!r}")
    raise ConfigError(f"unknown datum spec {text!r}")


def make_basis(name: str, op: BoundedOperator, datum, n_max: int, trial=None):
    """Resolve a basis selection string against an operator."""
    seq_space = op.space[0] == "seq"
    if name == "legendre":
        if seq_space:
            raise CapabilityError("legendre basis needs a function-space operator")
        return legendre_basis(op.space[1])
    if name == "fourier":
        if seq_space:
            raise CapabilityError("fourier basis needs a function-space operator")
        return fourier_basis(op.space[1])
    if name == "canonical":
        if not seq_space:
            raise CapabilityError("canonical basis needs a sequence-space operator")
        return canonical_basis(op.space[1])
    if name == "krylov":
        return krylov_basis(op, datum, n_max)
    if name == "svd":
        raise ConfigError("use trial = svd AND test = svd (resolved as a pair)")
    if name == "adversarial":
        if trial is None:
            raise ConfigError("adversarial works as a test basis only")
        n = min(n_max, trial.size or n_max)
        return adversarial_test_basis(op, trial, n)
    raise ConfigError(f"unknown basis {name!r}")


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    """Shortest round-trip decimal of a real number; empty for None."""
    if x is None:
        return ""
    return repr(float(x))


def _write_deterministic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("ascii"))


def _gnuplot_script(csv_name: str, columns) -> str:
    plots = ", \\\n     ".join(
        f"'{csv_name}' using 1:{i} with linespoints title '{col}'"
        for i, col in enumerate(columns[1:], start=2)
    )
    head = "set datafile separator ','\nset logscale y\nset xlabel 'N'\nset key outside\n"
    return head + "plot " + plots + "\n"


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _truncation_records(cfg: ExperimentConfig):
    """Run the configured truncation sweep; returns (meta, records)."""
    pc, tc = cfg.problem, cfg.truncation
    op = _build_operator(pc.operator)
    datum = parse_element(pc.datum, op)
    f_exact = (
        parse_element(pc.exact_solution, op) if pc.exact_solution is not None else None
    )
    tracked = cfg.output.tracked
    n_max = max(tc.n_list)
    records = []
    meta = {
        "operator": pc.operator,
        "datum": pc.datum,
        "exact_solution": pc.exact_solution or "",
        "solver": tc.solver,
        "tol": _fmt(tc.tol),
        "solution_family": tc.solution_family,
        "krylov_convention": KRYLOV_CONVENTION,
    }
    if (tc.solver != "qr" or "krylov" in (tc.trial, tc.test)) and datum.norm() == 0:
        raise ConfigError("krylov bases and solvers need a nonzero datum")
    if tc.solver == "qr":
        if tc.trial == "svd" or tc.test == "svd":
            if tc.trial != tc.test:
                raise ConfigError("svd bases are resolved as a trial/test pair")
            trial, test = svd_bases(op)
        else:
            trial = make_basis(tc.trial, op, datum, n_max)
            test = (
                trial
                if tc.test == tc.trial
                else make_basis(tc.test, op, datum, n_max, trial=trial)
            )
        meta["trial"], meta["test"] = trial.label, test.label
        cap = min(n_max, trial.size or n_max, test.size or n_max)
        base = compress(op, trial, test, cap, datum)
        for N in tc.n_list:
            if N > cap:
                break
            sol = solve_direct(base.leading(N), family=tc.solution_family)
            rec = evaluate(op, datum, sol, trial, test, f_exact=f_exact, tracked=tracked)
            records.append(rec)
        return meta, records
    if tc.solver == "gmres":
        sols, kb = solve_gmres(op, datum, n_max, tol=tc.tol, steps=tc.n_list)
    else:
        sols, kb = solve_cg(op, datum, n_max, steps=tc.n_list)
        if kb is None:  # the zero iterate already meets the stopping floor
            raise ConfigError("cg needs a datum above roundoff (||g|| > 1e-15)")
    meta["trial"] = meta["test"] = kb.label
    for sol in sols:
        records.append(evaluate(op, datum, sol, kb, kb, f_exact=f_exact, tracked=tracked))
    return meta, records


def _csv_text(meta: dict, columns, rows) -> str:
    """The CSV: `# key = value` lines, the columns, then the rows of cells."""
    lines = [f"# {key} = {value}" for key, value in meta.items()]
    lines += [f"# columns = {','.join(columns)}", ",".join(columns)]
    lines += [",".join(cells) for cells in rows]
    return "\n".join(lines) + "\n"


def _truncation_csv(cfg: ExperimentConfig):
    """(meta, columns, rows) of a truncation sweep's CSV."""
    meta, records = _truncation_records(cfg)
    tracked = cfg.output.tracked
    meta["tracked"] = ",".join(str(n) for n in tracked)
    columns = ["N", "err_norm", "res_norm", "sol_norm", "eps_norm"]
    for n in tracked:
        columns += [f"err_c_{n}", f"res_c_{n}"]
    rows = []
    for rec in records:
        cells = [str(rec.N)]
        cells += map(_fmt, (rec.err_norm, rec.res_norm, rec.sol_norm, rec.eps_norm))
        comps = {n: (e, r) for n, e, r in rec.tracked_components}
        for n in tracked:
            e, r = comps.get(n, (None, None))
            cells.append(_fmt(abs(e)) if e is not None else "")
            cells.append(_fmt(abs(r)) if r is not None else "")
        rows.append(cells)
    return meta, columns, rows


def _noise_csv(cfg: ExperimentConfig):
    """(meta, columns, rows) of a noise series' CSV."""
    nc = cfg.noise
    model = NoiseModel(
        sigma_law=_build_law(nc.sigma_law),
        g_law=_build_law(nc.g_law),
        nu_law=_build_law(nc.nu_law),
    )
    try:
        series = noise_series(model, nc.n_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    meta = dict(
        sigma_law=nc.sigma_law, g_law=nc.g_law, nu_law=nc.nu_law,
        noise_norm_sq=_fmt(series.noise_norm_sq),
        solvable="yes" if series.solvable else "no",
        err_sq_minimizer=series.n_min,
    )
    columns = ["N", "alpha", "beta", "res_sq", "err_sq"]
    # the columns as Python numbers: repr is _fmt without a numpy scalar per cell
    values = (series.N, series.alpha, series.beta, series.res_sq, series.err_sq)
    rows = (map(repr, cells) for cells in zip(*(v.tolist() for v in values)))
    return meta, columns, rows


def run(config: ExperimentConfig, out: Optional[str] = None) -> Path:
    """Execute a config; writes the CSV (and optional gnuplot script).

    Returns the CSV path.  Raises ConfigError for malformed configs and
    CapabilityError for operator/basis/solver mismatches.
    """
    build = _noise_csv if config.noise is not None else _truncation_csv
    meta, columns, rows = build(config)
    path = Path(out if out is not None else config.output.csv)
    _write_deterministic(path, _csv_text(meta, columns, rows))
    if config.output.gnuplot:
        _write_deterministic(
            path.with_suffix(path.suffix + ".gp"), _gnuplot_script(path.name, columns[:5])
        )
    return path


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------

def _demo_bad_truncation(lines):
    op = _build_operator("volterra")
    trial = legendre_basis(op.space[1])
    n_max = 20
    test = adversarial_test_basis(op, trial, n_max)
    datum = Func.zero(op.space[1])
    base = compress(op, trial, test, n_max, datum)
    ok = True
    for N in range(1, n_max + 1):
        smin = singular_values(base.leading(N).A_N)[-1]
        ok = ok and smin <= 1e-10
        lines.append(f"N={N:3d}  sigma_min={smin:.3e}  {'ok' if smin <= 1e-10 else 'FAIL'}")
    lines.append(
        "every truncation singular (sigma_min <= 1e-10): " + ("PASS" if ok else "FAIL")
    )
    return ok


def _demo_pathological_family(lines):
    op = _build_operator("weighted-right-shift:pow:1,1")
    basis = canonical_basis()
    datum = Seq.zero()
    f_exact = Seq.zero()
    base = compress(op, basis, basis, 40, datum)
    records = []
    for N in range(1, 41):
        sol = solve_direct(base.leading(N), family="kernel-scaled")
        records.append(
            evaluate(op, datum, sol, basis, basis, f_exact=f_exact)
        )
    norms_diverge = all(
        abs(rec.err_norm - rec.N) <= 1e-12 * rec.N for rec in records
    )
    verdict = classify(records, "error")
    ok = norms_diverge and verdict.label == "componentwise-not-weak"
    lines.append(f"solution norms grow like N: {'yes' if norms_diverge else 'NO'}")
    lines.append(f"error classification: {verdict.label}")
    lines.append("pathological family detected: " + ("PASS" if ok else "FAIL"))
    return ok


def _demo_shift_weak_residual(lines):
    op = _build_operator("right-shift")
    basis = canonical_basis()
    datum = Seq.zero()
    base = compress(op, basis, basis, 100, datum)
    records = []
    res_exact = True
    comps_ok = True
    for N in range(1, 101):
        sol = solve_direct(base.leading(N), family="kernel-unit")
        rec = evaluate(op, datum, sol, basis, basis, f_exact=Seq.zero())
        records.append(rec)
        res_exact = res_exact and rec.res_norm == 1.0
        for n, _, res_c in rec.tracked_components:
            if N > n and res_c is not None and abs(res_c) > 1e-12:
                comps_ok = False
    verdict = classify(records, "residual")
    ok = res_exact and comps_ok and verdict.label == "weak-not-strong"
    lines.append(f"res_norm == 1.0 exactly at every N: {'yes' if res_exact else 'NO'}")
    lines.append(
        f"tracked residual components vanish once N exceeds their index: "
        f"{'yes' if comps_ok else 'NO'}"
    )
    lines.append(f"residual classification: {verdict.label}")
    lines.append("weak-only residual vanishing: " + ("PASS" if ok else "FAIL"))
    return ok


DEMOS = {
    "bad-truncation": _demo_bad_truncation,
    "pathological-family": _demo_pathological_family,
    "shift-weak-residual": _demo_shift_weak_residual,
}


def demo(name: str, out: Optional[str] = None) -> Path:
    """Run a named demonstration and write its pass/fail report."""
    if name not in DEMOS:
        raise ConfigError(f"unknown demo {name!r}; have {sorted(DEMOS)}")
    lines = [f"demo: {name}"]
    DEMOS[name](lines)
    path = Path(out if out is not None else f"{name}-report.txt")
    _write_deterministic(path, "\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_config(source: str) -> ExperimentConfig:
    if source in PRESETS:
        return PRESETS[source]
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"{source!r} is neither a preset nor a config file")
    return ExperimentConfig.from_text(path.read_text())


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    overrides = {}
    for key in ("n_list", "solver", "tol"):
        raw = getattr(args, key)
        if raw is not None:
            flag = "--" + key.replace("_", "-")
            if cfg.truncation is None:
                raise ConfigError(f"{flag} applies to truncation runs only")
            overrides[key] = _read_value(flag, key, raw)
    if overrides:
        cfg = replace(cfg, truncation=replace(cfg.truncation, **overrides))
    if args.gnuplot:
        cfg = replace(cfg, output=replace(cfg.output, gnuplot=True))
    return cfg


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="hilbtrunc",
        description="truncate inverse linear problems and track their convergence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a config file or preset")
    p_run.add_argument("config", help="config path or preset name")
    p_run.add_argument("--n-list", default=None, help="override truncation sizes")
    p_run.add_argument("--solver", default=None, help="override solver (qr|gmres|cg)")
    p_run.add_argument("--tol", default=None, help="override tolerance")
    p_run.add_argument("--out", default=None, help="override CSV path")
    p_run.add_argument(
        "--gnuplot", action="store_true", help="emit a companion gnuplot script"
    )
    p_demo = sub.add_parser("demo", help="run a demonstration suite")
    p_demo.add_argument("name", help="|".join(DEMOS))
    p_demo.add_argument("--out", default=None, help="override report path")
    sub.add_parser("list-presets", help="list presets and demos")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.command == "list-presets":
            sys.stdout.write(list_presets())
            return 0
        if args.command == "demo":
            path = demo(args.name, out=args.out)
            sys.stdout.write(f"wrote {path}\n")
            return 0
        cfg = _apply_overrides(_load_config(args.config), args)
        path = run(cfg, out=args.out)
        sys.stdout.write(f"wrote {path}\n")
        return 0
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (CapabilityError, SpaceMismatchError) as exc:
        sys.stderr.write(f"capability mismatch: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
