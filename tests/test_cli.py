"""Tests for the experiment runner: configs, presets, CSV output, demos."""

import math
import os
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

    def test_bad_section_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("[weird]\nx = 1\n[output]\ncsv = a.csv\n")

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


class TestConfigValueErrors:
    def test_bad_operator_string_exit_two(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\noperator = mystery-box\ndatum = poly:1\n"
            "[truncation]\ntrial = legendre\nn_list = 2,4\n"
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
        "override", [["--n-list", "a,b"], ["--n-list", "0,2"], ["--solver", "lsqr"]]
    )
    def test_bad_override_exit_two(self, tmp_path, override):
        argv = ["run", "volterra-g1", *override, "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2

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
