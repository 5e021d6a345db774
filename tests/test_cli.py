"""Tests for the experiment runner: configs, presets, CSV output, demos."""

import gc
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
import scipy.special

import hilbtrunc
from hilbtrunc.core import ConfigError
from hilbtrunc.cli import (
    DEMOS,
    PRESETS,
    SOLVERS,
    ExperimentConfig,
    demo,
    main,
    run,
)


def read_csv(path):
    meta, rows = {}, []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def column(header, rows, name, cast=float):
    i = header.index(name)
    return [cast(r[i]) if r[i] else None for r in rows]


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", ["weird", "DEFAULT"])
    def test_bad_section_rejected(self, name):
        with pytest.raises(ConfigError, match="unknown config sections"):
            ExperimentConfig.from_text(f"[{name}]\ncsv = a.csv\n[output]\ncsv = a.csv\n")

    def test_nonincreasing_n_list_rejected(self):
        text = (
            "[problem]\noperator = volterra\ndatum = poly:0,0,0.5\n"
            "[truncation]\ntrial = legendre\nn_list = 4,4,8\n"
            "[output]\ncsv = out.csv\n"
        )
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(text)

    def test_missing_output_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("[noise]\nsigma_law = pow:1,1\ng_law = pow:1,2\nnu_law = pow:1,1.5\n")

    def test_readme_example_runs_as_written(self, tmp_path):
        """The README's commented config block writes the same CSV and
        gnuplot script as the block with its comments removed."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S).group(1)
        plain = "".join(
            line.split(";")[0].rstrip() + "\n"
            for line in block.splitlines()
            if line.split(";")[0].strip()
        )
        for name, text in (("readme", block), ("plain", plain)):
            (tmp_path / name).mkdir()
            (tmp_path / f"{name}.ini").write_text(text)
            out = str(tmp_path / name / "results.csv")
            assert main(["run", str(tmp_path / f"{name}.ini"), "--out", out, "--gnuplot"]) == 0
        for result in ("results.csv", "results.csv.gp"):
            assert (tmp_path / "readme" / result).read_bytes() == (
                tmp_path / "plain" / result
            ).read_bytes()


    def test_readme_library_example_runs_as_written(self, capsys):
        """The README's Python block prints, for N = 5, 10, 20, the error
        and residual at roundoff and the norm 1/sqrt(3) of f = x."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```python\n(.*?)```", readme.read_text(), re.S).group(1)
        exec(compile(block, "README.md", "exec"), {})
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [row[0] for row in rows] == ["5", "10", "20"]
        for _, err, res, sol in rows:
            assert abs(float(sol) - 1 / math.sqrt(3)) <= 1e-15
            assert float(err) < 1e-14 and float(res) < 1e-14


class TestRun:
    def test_first_problem_preset(self, tmp_path):
        from dataclasses import replace

        cfg = PRESETS["volterra-g1"]
        cfg = replace(cfg, truncation=replace(cfg.truncation, n_list=(2, 4, 10, 20)))
        path = run(cfg, out=str(tmp_path / "v.csv"))
        meta, header, rows = read_csv(path)
        sols = column(header, rows, "sol_norm")
        for s in sols:
            assert abs(s - 1.0 / math.sqrt(3.0)) < 1e-6
        assert meta["krylov_convention"] == "residual-minimization"

    def test_byte_determinism(self, tmp_path):
        from dataclasses import replace

        cfg = PRESETS["volterra-g1"]
        cfg = replace(cfg, truncation=replace(cfg.truncation, n_list=(2, 6, 12)))
        p1 = run(cfg, out=str(tmp_path / "a.csv"))
        p2 = run(cfg, out=str(tmp_path / "b.csv"))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.bitwise
    @pytest.mark.parametrize(
        "operator",
        ["right-shift", "weighted-right-shift:pow:1,1", "weighted-right-shift-z:pow1:1,1"],
    )
    def test_shift_sweep_bytes_independent_of_blas_threads(self, tmp_path, operator):
        """The shifts' truncations are singular and go to gelsy; their
        canonical sweeps, in fresh processes with one and two BLAS
        threads, write the same bytes."""
        cfg = tmp_path / "s.ini"
        cfg.write_text(
            f"[problem]\noperator = {operator}\ndatum = basis-e:1\n"
            "[truncation]\ntrial = canonical\ntest = canonical\nn_list = 200,320,640\n"
            "[output]\ncsv = s.csv\n"
        )
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"s{threads}.csv"
            proc = _fresh_python(
                "-m", "hilbtrunc.cli", "run", str(cfg), "--out", str(out),
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0].decode().splitlines()[-1].startswith("640,")
        assert outputs[0] == outputs[1]

    def test_gmres_override_reaches_tolerance(self, tmp_path):
        from dataclasses import replace

        cfg = PRESETS["mult-g2"]
        cfg = replace(
            cfg,
            truncation=replace(cfg.truncation, solver="gmres", n_list=(1, 2, 5, 10, 20, 50)),
        )
        path = run(cfg, out=str(tmp_path / "g.csv"))
        _, header, rows = read_csv(path)
        res = column(header, rows, "res_norm")
        assert res[-1] <= 1e-10

    def test_noise_preset_plateau(self, tmp_path):
        path = run(PRESETS["noise-example-6.2"], out=str(tmp_path / "n.csv"))
        meta, header, rows = read_csv(path)
        res_sq = column(header, rows, "res_sq")
        zeta3 = float(scipy.special.zeta(3))
        assert abs(res_sq[-1] - zeta3) <= 0.02 * zeta3
        assert meta["solvable"] == "yes"

    def test_noise_fig1_has_interior_minimum(self, tmp_path):
        path = run(PRESETS["noise-fig1"], out=str(tmp_path / "f.csv"))
        meta, header, rows = read_csv(path)
        err_sq = column(header, rows, "err_sq")
        n0 = int(meta["err_sq_minimizer"])
        assert 1 <= n0 < len(err_sq) - 1
        assert err_sq[n0] == min(err_sq)

    def test_gnuplot_companion(self, tmp_path):
        from dataclasses import replace

        cfg = PRESETS["noise-fig1"]
        cfg = replace(cfg, output=replace(cfg.output, gnuplot=True))
        path = run(cfg, out=str(tmp_path / "f.csv"))
        script = path.with_suffix(".csv.gp")
        assert script.exists()
        assert "plot" in script.read_text()


class TestDemos:
    @pytest.mark.parametrize("name", DEMOS)
    def test_demo_reports_pass(self, name, tmp_path):
        path = demo(name, out=str(tmp_path / f"{name}.txt"))
        text = path.read_text()
        assert "PASS" in text and "FAIL" not in text

    def test_unknown_demo_rejected(self):
        with pytest.raises(ConfigError):
            demo("mystery")

    @pytest.mark.parametrize(
        "operator,n_max,family,name,want",
        [
            ("weighted-right-shift:pow:1,1", 40, "kernel-scaled", "err_norm", float),
            ("right-shift", 100, "kernel-unit", "res_norm", lambda N: 1.0),
        ],
    )
    def test_shift_demos_are_zero_datum_runs(self, tmp_path, operator, n_max, family, name, want):
        """`run` on the sections of a shift demo writes the norms its
        verdict reads: ||f_N|| = N for the pathological family, and a
        residual of norm 1 for the right shift."""
        Ns = list(range(1, n_max + 1))
        cfg, out = tmp_path / "c.ini", tmp_path / "o.csv"
        cfg.write_text(
            f"[problem]\noperator = {operator}\ndatum = zero\nexact_solution = zero\n"
            f"[truncation]\ntrial = canonical\nn_list = {','.join(map(str, Ns))}\n"
            f"solution_family = {family}\n[output]\ncsv = out.csv\n"
        )
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert column(header, rows, "N", int) == Ns
        assert column(header, rows, name) == pytest.approx([want(N) for N in Ns], rel=1e-12)


class TestMain:
    def test_list_presets_mentions_everything(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("volterra-g1", "mult-g2", "noise-example-6.2", "noise-fig1"):
            assert name in out
        assert "bad-truncation" in out

    def test_run_preset_exit_zero(self, tmp_path):
        code = main(
            ["run", "volterra-g1", "--n-list", "2,4", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 0

    def test_config_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[problem]\noperator = volterra\n[output]\ncsv = x.csv\n")
        assert main(["run", str(bad)]) == 2
        assert main(["run", "no-such-preset"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "volterra-g1", "--out", "DIR"],
            ["demo", "bad-truncation", "--out", "DIR"],
            ["run", "volterra-g1", "--out", "FILE/o.csv"],
            ["run", "DIR"],
        ],
        ids=["run-out-dir", "demo-out-dir", "out-under-file", "config-dir"],
    )
    def test_unusable_path_exit_two(self, tmp_path, capsys, argv):
        """A config path or an output path that is a directory, or an
        output path under a file, is one config error line, not a
        traceback, and nothing is written."""
        (tmp_path / "DIR").mkdir()
        (tmp_path / "FILE").write_text("")
        argv = [str(tmp_path / a) if a in ("DIR", "FILE/o.csv") else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["DIR", "FILE"]
        assert not any((tmp_path / "DIR").iterdir())

    def test_config_not_utf8_exit_two(self, tmp_path, capsys):
        """Configs are read as UTF-8: a Latin-1 byte is one config error
        line, not a traceback."""
        cfg = tmp_path / "c.ini"
        cfg.write_bytes("; caf\u00e9\n".encode("latin-1"))
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read") and err.count("\n") == 1

    def test_capability_mismatch_exit_three(self, tmp_path):
        cfg = tmp_path / "cg-volterra.ini"
        cfg.write_text(
            "[problem]\noperator = volterra\ndatum = poly:0,0,0.5\n"
            "[truncation]\ntrial = krylov\nn_list = 2,4\nsolver = cg\n"
            "[output]\ncsv = out.csv\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 3

    def test_canonical_basis_on_function_space_exit_three(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\noperator = volterra\ndatum = poly:0,0,0.5\n"
            "[truncation]\ntrial = canonical\nn_list = 2,4\n"
            "[output]\ncsv = out.csv\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 3

    @pytest.mark.parametrize(
        "frame,operator,datum,space",
        [
            ("legendre", "right-shift", "basis-e:1", "function"),
            ("fourier", "right-shift", "basis-e:1", "function"),
            ("canonical", "volterra", "poly:1", "sequence"),
        ],
    )
    def test_frame_on_the_other_space_exit_three(
        self, tmp_path, capsys, frame, operator, datum, space
    ):
        cfg = tmp_path / "c.ini"
        cfg.write_text(_truncation_ini(operator, datum, frame, frame, "qr"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err == f"capability mismatch: {frame} basis needs a {space}-space operator\n"

    def test_demo_via_main(self, tmp_path):
        assert main(["demo", "bad-truncation", "--out", str(tmp_path / "r.txt")]) == 0
        assert (tmp_path / "r.txt").exists()

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path):
        """Calls share one parser; an override given to one call does not
        reach the next, and argparse still rejects a bad argv with 2."""
        from hilbtrunc.cli import _parser

        assert _parser() is _parser()
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["run", "mult-g2", "--n-list", "3,4", "--solver", "gmres", "--out", str(first)]
        assert main(argv) == 0
        assert main(["run", "mult-g2", "--n-list", "3,4", "--out", str(second)]) == 0
        assert read_csv(first)[0]["solver"] == "gmres"
        assert read_csv(second)[0]["solver"] == "qr"
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["run"])
            assert exc.value.code == 2


def _truncation_ini(
    operator, datum, trial="legendre", test="legendre", solver="qr", n_list="1,2,4",
    problem="", truncation="",
):
    """A truncation config; `problem` and `truncation` are extra lines for those sections."""
    return (
        f"[problem]\noperator = {operator}\ndatum = {datum}\n{problem}"
        f"[truncation]\ntrial = {trial}\ntest = {test}\nn_list = {n_list}\n"
        f"solver = {solver}\n{truncation}[output]\ncsv = out.csv\n"
    )


NOISE_INI = "[noise]\nsigma_law = pow:1,1\ng_law = pow:1,2\nnu_law = pow:1,1.5\n"


class TestConfigValueErrors:
    @pytest.mark.parametrize(
        "text,message",
        [
            # a misspelled key
            ("[problem]\noperator = volterra\ndatum = poly:0,0,0.5\n"
             "[truncation]\ntrial = legendre\nn_list = 2,4\nsolvr = gmres\n"
             "[output]\ncsv = out.csv\n",
             "unknown keys in [truncation]: ['solvr']"),
            # both a truncation problem and a noise study
            ("[problem]\noperator = volterra\ndatum = poly:0,0,0.5\n"
             "[truncation]\ntrial = legendre\nn_list = 2,4\n"
             + NOISE_INI + "[output]\ncsv = out.csv\n",
             "config needs exactly one of [problem] and [noise]"),
            # a yes/no key that is neither
            (NOISE_INI + "[output]\ncsv = out.csv\ngnuplot = maybe\n",
             "bad value for output.gnuplot: 'maybe' (expected yes or no)"),
            # specs with Unicode digits: float and int read them, but the
            # CSV header they are copied into is ASCII
            ("[problem]\noperator = volterra\ndatum = poly:\uff10,\uff10,\uff10.\uff15\n"
             "[truncation]\ntrial = legendre\nn_list = 2,4\n[output]\ncsv = out.csv\n",
             "bad value for problem.datum: 'poly:\uff10,\uff10,\uff10.\uff15' (specs must be ASCII)"),
            ("[problem]\noperator = mult-x:\uff11,2\ndatum = poly:0,0,1\n"
             "[truncation]\ntrial = legendre\nn_list = 2,4\n[output]\ncsv = out.csv\n",
             "bad value for problem.operator: 'mult-x:\uff11,2' (specs must be ASCII)"),
            ("[noise]\nsigma_law = pow:\uff11,1\ng_law = pow:1,2\nnu_law = pow:1,1.5\n"
             "[output]\ncsv = out.csv\n",
             "bad value for noise.sigma_law: 'pow:\uff11,1' (specs must be ASCII)"),
            # datum and solution specs: the message names the key and the spec
            (_truncation_ini("volterra", "poly:x"),
             "bad datum spec 'poly:x': could not convert string to float: 'x'"),
            (_truncation_ini("volterra", "poly:"),
             "bad datum spec 'poly:': could not convert string to float: ''"),
            (_truncation_ini("volterra", "foo:1"), "bad datum spec 'foo:1': unknown element kind 'foo'"),
            (_truncation_ini("right-shift", "poly:1", "canonical", "canonical"),
             "bad datum spec 'poly:1': poly needs a function-space operator"),
            (_truncation_ini("volterra", "basis-e:1"),
             "bad datum spec 'basis-e:1': basis-e needs a sequence-space operator"),
            (_truncation_ini("right-shift", "basis-e:x", "canonical", "canonical"),
             "bad datum spec 'basis-e:x': invalid literal for int() with base 10: 'x'"),
            (_truncation_ini("right-shift", "basis-e:0", "canonical", "canonical"),
             "bad datum spec 'basis-e:0': nat-indexed sequences start at index >= 1"),
            (_truncation_ini("volterra", "func:two"), "bad datum spec 'func:two': unknown func preset 'two'"),
            (_truncation_ini("volterra", "poly:1", problem="exact_solution = poly:x\n"),
             "bad exact_solution spec 'poly:x': could not convert string to float: 'x'"),
            # specs that take no argument, given one
            (_truncation_ini("volterra:junk", "poly:1"),
             "bad operator spec 'volterra:junk': unknown operator spec 'volterra:junk'"),
            (_truncation_ini("right-shift:7", "basis-e:1", "canonical", "canonical"),
             "bad operator spec 'right-shift:7': unknown operator spec 'right-shift:7'"),
            (_truncation_ini("right-shift", "zero:9", "canonical", "canonical"),
             "bad datum spec 'zero:9': zero takes no argument"),
            (_truncation_ini("volterra", "poly:1", problem="exact_solution = zero:9\n"),
             "bad exact_solution spec 'zero:9': zero takes no argument"),
            # bases, solution families and sections
            (_truncation_ini("volterra", "poly:1", "nope", "nope"), "unknown basis 'nope'"),
            # the Krylov solvers use neither key, yet a name is still checked
            (_truncation_ini("volterra", "poly:1", "nope", "legendre", solver="gmres"),
             "unknown basis 'nope'"),
            (_truncation_ini("mult-x:1,2", "poly:0,0,1", "legendre", "nope", solver="cg"),
             "unknown basis 'nope'"),
            (_truncation_ini("volterra", "poly:1", truncation="solution_family = nope\n"),
             "unknown solution_family 'nope'"),
            (_truncation_ini("volterra", "poly:1", "adversarial", "adversarial"),
             "adversarial works as a test basis only"),
            (_truncation_ini("volterra", "poly:1", "svd", "legendre"),
             "svd bases are resolved as a trial/test pair"),
            (NOISE_INI + "[truncation]\ntrial = legendre\nn_list = 2\n[output]\ncsv = out.csv\n",
             "a [truncation] section goes with a [problem] section"),
            (NOISE_INI + "nu_law = pow:1,1.5\n[output]\ncsv = out.csv\n",
             "config parse failure: While reading from '<string>' [line  5]: "
             "option 'nu_law' in section 'noise' already exists"),
            (NOISE_INI + "n_max = 0\n[output]\ncsv = out.csv\n", "n_max must be >= 1, got 0"),
            (NOISE_INI.replace("pow:1,1", "foo:1", 1) + "[output]\ncsv = out.csv\n",
             "bad sigma_law spec 'foo:1': unknown law kind 'foo:1'"),
        ],
        ids=[
            "misspelled-key", "problem-and-noise", "gnuplot-maybe",
            "non-ascii-datum", "non-ascii-operator", "non-ascii-law",
            "datum-not-a-number", "datum-empty-poly", "datum-unknown-kind",
            "poly-on-sequences", "basis-e-on-functions", "basis-e-not-an-index",
            "basis-e-zero", "func-unknown-preset", "exact-solution-not-a-number",
            "volterra-with-argument", "right-shift-with-argument", "zero-datum-with-argument",
            "zero-solution-with-argument",
            "unknown-trial", "unknown-trial-gmres", "unknown-test-cg", "unknown-solution-family", "adversarial-trial",
            "svd-with-legendre", "truncation-in-noise", "repeated-key",
            "noise-n-max-zero", "unknown-sigma-law",
        ],
    )
    def test_input_that_would_be_dropped_exit_two(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "c.ini"
        cfg.write_text(text, encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    def test_func_one_datum_runs(self, tmp_path):
        """func:one is the constant function, poly:1."""
        rows = []
        for datum in ("func:one", "poly:1"):
            cfg, out = tmp_path / "c.ini", tmp_path / f"{datum[:4]}.csv"
            cfg.write_text(_truncation_ini("volterra", datum))
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            meta, _, body = read_csv(out)
            assert meta["datum"] == datum
            rows.append(body)
        assert rows[0] == rows[1] and len(rows[0]) == 3

    def test_non_ascii_comment_and_csv_path_run(self, tmp_path):
        cfg, out = tmp_path / "c.ini", tmp_path / "r\u00e9sum\u00e9.csv"
        cfg.write_text(
            "; caf\u00e9\n[problem]\noperator = volterra ; \u222b\ndatum = poly:0,0,0.5\n"
            f"[truncation]\ntrial = legendre\nn_list = 2,4\n[output]\ncsv = {out}\n",
            encoding="utf-8",
        )
        assert main(["run", str(cfg)]) == 0
        assert out.read_text().startswith("# operator = volterra\n")

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_tol_not_a_non_negative_number_exit_two(self, tmp_path, tol):
        """A NaN tolerance never stops GMRES; a negative one means nothing."""
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\noperator = volterra\ndatum = poly:0,0,0.5\n"
            f"[truncation]\ntrial = krylov\nn_list = 2,4\nsolver = gmres\ntol = {tol}\n"
            "[output]\ncsv = out.csv\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        argv = ["run", "mult-g2", "--solver", "gmres", "--tol", tol]
        assert main([*argv, "--out", str(tmp_path / "p.csv")]) == 2
        assert not (tmp_path / "o.csv").exists() and not (tmp_path / "p.csv").exists()

    def test_infinite_tol_allowed(self, tmp_path):
        argv = ["run", "mult-g2", "--solver", "gmres", "--tol", "inf", "--n-list", "2,4"]
        assert main([*argv, "--out", str(tmp_path / "o.csv")]) == 0

    def test_bad_operator_string_exit_two(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\noperator = mystery-box\ndatum = poly:1\n"
            "[truncation]\ntrial = legendre\nn_list = 2,4\n"
            "[output]\ncsv = out.csv\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize(
        "operator,datum,exact,solver",
        [
            ("volterra", "poly:nan", None, None),
            ("volterra", "poly:inf,1", None, None),
            ("volterra", "poly:1", "poly:nan", None),
            ("volterra", "poly:1", "poly:inf,1", None),
            ("mult-x:0,inf", "poly:1", None, None),
            # finite numbers whose width or norm overflows
            ("mult-x:-1e308,1e308", "poly:1", None, None),
            ("mult-x:-1e308,1e308", "zero", None, None),
            ("volterra", "poly:1e200", None, None),
            ("volterra", "poly:1e300,1e300", None, None),
            ("volterra", "poly:1", "poly:0,0,1e160", None),
            ("volterra", "poly:1e200", None, "gmres"),
            # a finite datum whose solution's norm overflows
            ("volterra", "poly:1e154", "poly:0,1", None),
        ],
        ids=[
            "datum-nan", "datum-inf", "exact-nan", "exact-inf", "mult-x-inf",
            "mult-x-wide", "mult-x-wide-zero-datum", "datum-norm-overflows",
            "datum-norm-overflows-twice", "exact-norm-overflows", "datum-norm-overflows-gmres",
            "solution-norm-overflows",
        ],
    )
    def test_non_finite_number_exit_two(self, tmp_path, capsys, operator, datum, exact, solver):
        """Not a traceback from the least-squares solver, no CSV of NaNs
        or infs, and no numpy warning on the way."""
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            f"[problem]\noperator = {operator}\ndatum = {datum}\n"
            + (f"exact_solution = {exact}\n" if exact else "")
            + "[truncation]\ntrial = legendre\ntest = legendre\nn_list = 2,4\n"
            + (f"solver = {solver}\n" if solver else "")
            + "[output]\ncsv = out.csv\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "operator,message",
        [
            ("weighted-right-shift:geom:1,2", "weight law geom:1,2 is not finite from index 1"),
            ("weighted-right-shift:geom:0,inf", "weight law geom:0,inf is not finite from index 1"),
            ("mult-seq:geom:1,2", "law geom:1,2 is not finite from index 1"),
        ],
    )
    def test_non_finite_law_exits_two_without_a_warning(self, tmp_path, operator, message):
        """The law checks evaluate the law and reject what is not finite:
        numpy's overflow or invalid-value warning must not reach stderr
        first."""
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            f"[problem]\noperator = {operator}\ndatum = basis-e:1\n"
            "[truncation]\ntrial = canonical\ntest = canonical\nn_list = 2\n"
            "[output]\ncsv = out.csv\n"
        )
        proc = _fresh_python("-m", "hilbtrunc.cli", "run", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"config error: bad operator spec '{operator}': {message}"]

    @pytest.mark.parametrize(
        "law", ["pow:1,-1", "pow1:2,-0.5", "geom:1,1.001"]
    )
    def test_unbounded_multiplication_law_exits_two(self, tmp_path, law):
        """A closed-form law that grows is no bounded operator: its values
        stay finite on the probe window, so only the law's kind and
        parameters can tell."""
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            f"[problem]\noperator = mult-seq:{law}\ndatum = basis-e:1\n"
            "[truncation]\ntrial = canonical\ntest = canonical\nn_list = 2\n"
            "[output]\ncsv = out.csv\n"
        )
        proc = _fresh_python("-m", "hilbtrunc.cli", "run", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"config error: bad operator spec 'mult-seq:{law}': law {law} is unbounded"
        ]
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("law", ["pow:1,0", "geom:1,1"])
    def test_bounded_multiplication_law_at_the_edge_runs(self, tmp_path, law):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            f"[problem]\noperator = mult-seq:{law}\ndatum = basis-e:1\n"
            "[truncation]\ntrial = canonical\ntest = canonical\nn_list = 2\n"
            "[output]\ncsv = out.csv\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("key", ["datum", "exact_solution"])
    def test_basis_vector_below_one_exit_two(self, tmp_path, key):
        """l2(N) has no index 0: basis-e:0 is a configuration error."""
        values = {"datum": "basis-e:1", "exact_solution": "basis-e:1", key: "basis-e:0"}
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\noperator = right-shift\n"
            f"datum = {values['datum']}\nexact_solution = {values['exact_solution']}\n"
            "[truncation]\ntrial = canonical\ntest = canonical\nn_list = 2,4\n"
            "[output]\ncsv = out.csv\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    def test_non_summable_noise_exit_two(self, tmp_path, capsys):
        """A noise or datum law that is not square-summable, with the
        default n_max too, where g = 2^n overflows."""
        cases = [
            ("g_law = pow:1,2\nnu_law = pow:1,0.4\nn_max = 50\n", "noise law pow:1,0.4"),
            ("g_law = geom:1,2\nnu_law = pow:1,1.5\n", "datum law geom:1,2"),
            ("g_law = const:1\nnu_law = pow:1,1.5\n", "datum law const:1"),
        ]
        for laws, law in cases:
            cfg = tmp_path / "n.ini"
            cfg.write_text(f"[noise]\nsigma_law = pow:1,1\n{laws}[output]\ncsv = out.csv\n")
            assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
            err = capsys.readouterr().err
            assert err == f"config error: {law} is not square-summable\n"
            assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n_list", "a,b"),
            ("n_list", "0,2"),
            ("n_list", "-1,2"),
            ("tracked", "0,1"),
            ("tracked", "x"),
            ("tracked", "1,1"),
            ("solver", "lsqr"),
        ],
    )
    def test_bad_index_or_solver_exit_two(self, tmp_path, key, value):
        fields = {"n_list": "2,4", "tracked": "1,2", "solver": "qr", key: value}
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\noperator = volterra\ndatum = poly:0,0,0.5\n"
            f"[truncation]\ntrial = legendre\nn_list = {fields['n_list']}\n"
            f"solver = {fields['solver']}\n"
            f"[output]\ncsv = out.csv\ntracked = {fields['tracked']}\n"
        )
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(cfg.read_text())
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize(
        "override",
        [
            ["volterra-g1", "--n-list", "a,b"],
            ["volterra-g1", "--n-list", "0,2"],
            ["volterra-g1", "--n-list", "4,2"],
            ["volterra-g1", "--solver", "lsqr"],
            ["volterra-g1", "--tol", "abc"],
            ["noise-fig1", "--n-list", "2,4"],  # a noise study has no truncation
        ],
    )
    def test_bad_override_exit_two(self, tmp_path, capsys, override):
        assert main(["run", *override, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "sigma_law", ["const:0", "pow:0,1", "geom:1,-0.5", "geom:1,2", "pow:1,-1"]
    )
    def test_non_positive_sigma_exit_two(self, tmp_path, capsys, sigma_law):
        """Singular values are positive, and those of a bounded operator
        do not grow: geom:1,2 and pow:1,-1 are rejected before 2^n
        overflows or n^2 makes a solvable-looking series."""
        cfg = tmp_path / "n.ini"
        cfg.write_text(
            f"[noise]\nsigma_law = {sigma_law}\ng_law = pow:1,2\nnu_law = pow:1,1.5\n"
            "[output]\ncsv = out.csv\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sigma law {sigma_law} ") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("key", ["sigma_law", "g_law", "nu_law"])
    def test_bad_law_spec_exit_two(self, tmp_path, capsys, key):
        laws = {"sigma_law": "pow:1,1", "g_law": "pow:1,2", "nu_law": "pow:1,1.5", key: "pow:x"}
        cfg = tmp_path / "n.ini"
        cfg.write_text(
            "[noise]\n" + "".join(f"{k} = {v}\n" for k, v in laws.items())
            + "[output]\ncsv = out.csv\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: bad {key} spec 'pow:x': malformed law 'pow:x'\n"

    def test_divergent_solution_law_is_unsolvable_without_warnings(self, tmp_path):
        """g_n / sigma_n = n^-2 / 0.9^n grows: the tail sum is inf, quietly."""
        cfg = tmp_path / "n.ini"
        cfg.write_text(
            "[noise]\nsigma_law = geom:1,0.9\ng_law = pow:1,2\nnu_law = pow:1,1.5\n"
            "n_max = 20\n[output]\ncsv = out.csv\n"
        )
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert meta["solvable"] == "no"

    @pytest.mark.parametrize("sigma_law", ["geom:1,0.9", "pow:1,1"])
    def test_noise_rows_are_the_cells_formatted_one_by_one(self, tmp_path, sigma_law):
        """Rows written from whole columns equal `_fmt` of each numpy
        scalar, inf included."""
        from hilbtrunc.cli import _fmt
        from hilbtrunc.diagnostics import NoiseModel, noise_series
        from hilbtrunc.operators import parse_law

        cfg = tmp_path / "n.ini"
        cfg.write_text(
            f"[noise]\nsigma_law = {sigma_law}\ng_law = pow:1,2\nnu_law = pow:1,1.5\n"
            "n_max = 60\n[output]\ncsv = out.csv\n"
        )
        out = tmp_path / "o.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        laws = (sigma_law, "pow:1,2", "pow:1,1.5")
        series = noise_series(NoiseModel(*map(parse_law, laws)), 60)
        want = [
            [str(int(series.N[i]))]
            + [_fmt(c[i]) for c in (series.alpha, series.beta, series.res_sq, series.err_sq)]
            for i in range(len(series.N))
        ]
        assert read_csv(out)[2] == want


MATRIX_OPERATORS = {
    "volterra": "poly:0,0,0.5",
    "mult-x:1,2": "poly:0,0,1",
    "right-shift": "basis-e:2",
    "weighted-right-shift:pow:1,1": "basis-e:1",
    "weighted-right-shift-z:pow1:1,1": "basis-e:1",
    "mult-seq:pow:1,1": "basis-e:2",  # an eigenvector: the Krylov space is 1-d
}
MATRIX_BASES = ("legendre", "fourier", "krylov", "svd", "canonical", "adversarial")


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("matrix")


class TestCliMatrix:
    """Every operator kind x trial x test x solver, nonzero and zero datum."""

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("test", MATRIX_BASES)
    @pytest.mark.parametrize("trial", MATRIX_BASES)
    @pytest.mark.parametrize("operator", sorted(MATRIX_OPERATORS))
    def test_runs_or_exits_two_or_three(self, matrix_dir, operator, trial, test, solver):
        cfg, out = matrix_dir / "c.ini", matrix_dir / "o.csv"
        for datum in (MATRIX_OPERATORS[operator], "zero"):
            cfg.write_text(_truncation_ini(operator, datum, trial, test, solver))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["run", str(cfg), "--out", str(out)])
            assert code in (0, 2, 3), datum

    @pytest.mark.parametrize(
        "operator,trial,test,solver",
        [
            ("volterra", "krylov", "krylov", "qr"),
            ("volterra", "krylov", "legendre", "qr"),
            ("volterra", "legendre", "krylov", "qr"),
            ("volterra", "legendre", "legendre", "gmres"),
            ("mult-x:1,2", "krylov", "krylov", "cg"),
            ("right-shift", "canonical", "krylov", "qr"),
        ],
    )
    def test_zero_datum_with_krylov_exit_two(
        self, tmp_path, capsys, operator, trial, test, solver
    ):
        cfg = tmp_path / "c.ini"
        cfg.write_text(_truncation_ini(operator, "zero", trial, test, solver))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert "nonzero datum" in capsys.readouterr().err

    def test_cg_datum_below_roundoff_exit_two(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(_truncation_ini("mult-x:1,2", "poly:1e-20", "krylov", "krylov", "cg"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    def test_cg_on_zero_multiplier_exit_three(self, tmp_path, capsys):
        """mult-seq:const:0 is flagged self-adjoint and positive, but its
        T_1 = 0 is not positive definite."""
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            _truncation_ini("mult-seq:const:0", "basis-e:1", "krylov", "krylov", "cg")
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 3
        assert "not positive definite" in capsys.readouterr().err

    def test_adversarial_against_exhausted_krylov(self, tmp_path):
        """The Krylov space of an eigenvector is 1-d: the adversarial family
        is built for that size and the sweep stops at N = 1."""
        cfg, out = tmp_path / "c.ini", tmp_path / "o.csv"
        cfg.write_text(
            _truncation_ini("mult-seq:pow:1,1", "basis-e:2", "krylov", "adversarial", "qr")
        )
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert column(header, rows, "N", int) == [1]
        assert meta["test"].startswith("adversarial[")

    @pytest.mark.parametrize("trial,test", [("krylov", "krylov"), ("canonical", "krylov")])
    def test_finite_family_below_every_n_exit_three(self, tmp_path, capsys, trial, test):
        """The Krylov space of an eigenvector is 1-d: a sweep from N = 2
        has no row, and one from N = 1 keeps that row alone."""
        cfg, out = tmp_path / "c.ini", tmp_path / "o.csv"
        cfg.write_text(_truncation_ini("mult-seq:const:1", "basis-e:1", trial, test, n_list="2,4"))
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "capability mismatch: krylov[mult-seq(const:1)] has size 1, below the smallest N = 2\n"
        )
        assert not out.exists()
        cfg.write_text(_truncation_ini("mult-seq:const:1", "basis-e:1", trial, test, n_list="1,2,4"))
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert column(*read_csv(out)[1:], "N", int) == [1]

    def test_cg_reports_the_krylov_basis_of_the_datum(self, tmp_path):
        cfg, out = tmp_path / "c.ini", tmp_path / "o.csv"
        cfg.write_text(
            _truncation_ini("mult-x:1,2", "poly:0,0,1", "krylov", "krylov", "cg", "2,4")
        )
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert meta["trial"] == meta["test"] == "krylov[mult-x[1,2]]"
        assert column(header, rows, "N", int) == [2, 4]


def _fresh_python(*args, **env_vars):
    """Run a fresh interpreter that imports this checkout's hilbtrunc,
    with `env_vars` added to its environment."""
    env = dict(os.environ, **env_vars)
    src = str(Path(hilbtrunc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestEntryPoints:
    def test_module_entry_point_warning_free(self):
        proc = _fresh_python("-W", "error", "-m", "hilbtrunc.cli", "list-presets")
        assert proc.returncode == 0, proc.stderr
        assert "volterra-g1" in proc.stdout

    def test_package_import_leaves_cli_unloaded(self):
        proc = _fresh_python(
            "-c",
            "import sys, hilbtrunc; "
            "print(sorted({'hilbtrunc.cli', 'configparser'} & set(sys.modules)))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def test_memory_stays_bounded_over_a_long_session(tmp_path, capsys):
    """100 runs in one process, alternating a Legendre preset and a
    Fourier/Legendre config: once the memos are warm, what the runs keep
    does not grow.  One leaked 100 x 100 complex A_N is 160 KiB."""
    cfg = tmp_path / "c.ini"
    cfg.write_text(_truncation_ini("mult-x:1,2", "poly:0,0,1", "fourier", "legendre", n_list="4,8,16,28"))
    out = str(tmp_path / "o.csv")
    argvs = [["run", "volterra-g1", "--out", out], ["run", str(cfg), "--out", out]]
    tracemalloc.start()
    try:
        for n in range(1, 101):
            assert main(argvs[n % 2]) == 0
            if n in (20, 100):
                gc.collect()
                size = tracemalloc.get_traced_memory()[0]
                if n == 20:
                    warm = size
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert size - warm < 512 * 1024
