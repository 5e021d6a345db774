"""Tests for the experiment runner: configs, presets, CSV output, demos."""

import math
import os
import re
import subprocess
import sys
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
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_serialize_and_parse_back(self, name):
        cfg = PRESETS[name]
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg

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


class TestConfigValueErrors:
    @pytest.mark.parametrize(
        "text",
        [
            # a misspelled key
            "[problem]\noperator = volterra\ndatum = poly:0,0,0.5\n"
            "[truncation]\ntrial = legendre\nn_list = 2,4\nsolvr = gmres\n"
            "[output]\ncsv = out.csv\n",
            # both a truncation problem and a noise study
            "[problem]\noperator = volterra\ndatum = poly:0,0,0.5\n"
            "[truncation]\ntrial = legendre\nn_list = 2,4\n"
            "[noise]\nsigma_law = pow:1,1\ng_law = pow:1,2\nnu_law = pow:1,1.5\n"
            "[output]\ncsv = out.csv\n",
            # a yes/no key that is neither
            "[noise]\nsigma_law = pow:1,1\ng_law = pow:1,2\nnu_law = pow:1,1.5\n"
            "[output]\ncsv = out.csv\ngnuplot = maybe\n",
        ],
        ids=["misspelled-key", "problem-and-noise", "gnuplot-maybe"],
    )
    def test_input_that_would_be_dropped_exit_two(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

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
        "operator,datum,exact",
        [
            ("volterra", "poly:nan", None),
            ("volterra", "poly:inf,1", None),
            ("volterra", "poly:1", "poly:nan"),
            ("volterra", "poly:1", "poly:inf,1"),
            ("mult-x:0,inf", "poly:1", None),
        ],
        ids=["datum-nan", "datum-inf", "exact-nan", "exact-inf", "mult-x-inf"],
    )
    def test_non_finite_number_exit_two(self, tmp_path, capsys, operator, datum, exact):
        """Not a traceback from the least-squares solver, and no CSV of NaNs."""
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            f"[problem]\noperator = {operator}\ndatum = {datum}\n"
            + (f"exact_solution = {exact}\n" if exact else "")
            + "[truncation]\ntrial = legendre\ntest = legendre\nn_list = 2,4\n"
            "[output]\ncsv = out.csv\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err
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

    def test_non_summable_noise_exit_two(self, tmp_path):
        cfg = tmp_path / "n.ini"
        cfg.write_text(
            "[noise]\nsigma_law = pow:1,1\ng_law = pow:1,2\nnu_law = pow:1,0.4\n"
            "n_max = 50\n[output]\ncsv = out.csv\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n_list", "a,b"),
            ("n_list", "0,2"),
            ("n_list", "-1,2"),
            ("tracked", "0,1"),
            ("tracked", "x"),
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
            ["--n-list", "a,b"],
            ["--n-list", "0,2"],
            ["--n-list", "4,2"],
            ["--solver", "lsqr"],
            ["--tol", "abc"],
        ],
    )
    def test_bad_override_exit_two(self, tmp_path, override):
        argv = ["run", "volterra-g1", *override, "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2

    @pytest.mark.parametrize("sigma_law", ["const:0", "pow:0,1", "geom:1,-0.5"])
    def test_non_positive_sigma_exit_two(self, tmp_path, sigma_law):
        cfg = tmp_path / "n.ini"
        cfg.write_text(
            f"[noise]\nsigma_law = {sigma_law}\ng_law = pow:1,2\nnu_law = pow:1,1.5\n"
            "n_max = 50\n[output]\ncsv = out.csv\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

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
        from hilbtrunc.cli import _build_law, _fmt
        from hilbtrunc.diagnostics import NoiseModel, noise_series

        cfg = tmp_path / "n.ini"
        cfg.write_text(
            f"[noise]\nsigma_law = {sigma_law}\ng_law = pow:1,2\nnu_law = pow:1,1.5\n"
            "n_max = 60\n[output]\ncsv = out.csv\n"
        )
        out = tmp_path / "o.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        laws = (sigma_law, "pow:1,2", "pow:1,1.5")
        series = noise_series(NoiseModel(*map(_build_law, laws)), 60)
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


def _truncation_ini(operator, datum, trial, test, solver, n_list="1,2,4"):
    return (
        f"[problem]\noperator = {operator}\ndatum = {datum}\n"
        f"[truncation]\ntrial = {trial}\ntest = {test}\nn_list = {n_list}\n"
        f"solver = {solver}\n[output]\ncsv = out.csv\n"
    )


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

    def test_cg_reports_the_krylov_basis_of_the_datum(self, tmp_path):
        cfg, out = tmp_path / "c.ini", tmp_path / "o.csv"
        cfg.write_text(
            _truncation_ini("mult-x:1,2", "poly:0,0,1", "krylov", "krylov", "cg", "2,4")
        )
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert meta["trial"] == meta["test"] == "krylov[mult-x[1,2]]"
        assert column(header, rows, "N", int) == [2, 4]


def _fresh_python(*args):
    """Run a fresh interpreter that imports this checkout's hilbtrunc."""
    env = dict(os.environ)
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
