"""Golden SHA-256 digests of the CLI outputs.

Every preset CSV, demo report, the README's GMRES override and config
example, and the `list-presets` listing must stay byte-identical across
refactors.  The digests were recorded with numpy/OpenBLAS on x86_64; a
platform whose kernels round differently may differ in the last digits
of a CSV cell and fail here.
"""

import hashlib

import pytest

from hilbtrunc.cli import main

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

# (argv with "{d}" for the output directory, {output file: sha256})
GOLDEN = {
    "run volterra-g1": (
        ["run", "volterra-g1", "--out", "{d}/volterra-g1.csv"],
        {"volterra-g1.csv": "aa3b664cda1000eef0b047b94b4cc21d7ea8f40d337b48fe5acff2ef92b8ead1"},
    ),
    "run mult-g2": (
        ["run", "mult-g2", "--out", "{d}/mult-g2.csv"],
        {"mult-g2.csv": "a85d32d8248dbc6000d401d193d960ba7836b8a2814abc86d8108fd9e16ab8e4"},
    ),
    "run noise-example-6.2": (
        ["run", "noise-example-6.2", "--out", "{d}/noise-example-6.2.csv"],
        {"noise-example-6.2.csv": "f8a68ced03f10a4aea4e3a0bedba9c59167aabf358a7dc7464e9badfbbe660a4"},
    ),
    "run noise-fig1": (
        ["run", "noise-fig1", "--out", "{d}/noise-fig1.csv"],
        {"noise-fig1.csv": "2cab699b8e3a379d4a49d37464f3958e7d97d894caebb28ff07126fb5a7f6070"},
    ),
    "run mult-g2 --solver gmres": (
        ["run", "mult-g2", "--solver", "gmres", "--tol", "1e-10",
         "--n-list", "1,2,5,10,20,50", "--out", "{d}/mult-g2.csv"],
        {"mult-g2.csv": "e203a1146e6b48e1386f941bdf6ceee652c04ee82e77fb90bdd3b8a6dc7becce"},
    ),
    "run my-experiment.ini --gnuplot": (
        ["run", "{d}/my-experiment.ini", "--out", "{d}/results.csv", "--gnuplot"],
        {
            "results.csv": "af4708cf1481b2ccf8d9cfd1c1ce9ffb0928fc060f1a17c1e458cecd68e575ca",
            "results.csv.gp": "76c70389f5c29bda34386dd487f11054a18ef87f8f9f8cc40b22c1585ee251c2",
        },
    ),
    "demo bad-truncation": (
        ["demo", "bad-truncation", "--out", "{d}/report.txt"],
        {"report.txt": "4fb58632ae0309d487b226df9538616bdadf0ff2520e55bba0eae4b7330b4886"},
    ),
    "demo pathological-family": (
        ["demo", "pathological-family", "--out", "{d}/report.txt"],
        {"report.txt": "fb556c9d83426d85a5eee7328d581554c4b2c9132f96306311680cb71fe8c1ae"},
    ),
    "demo shift-weak-residual": (
        ["demo", "shift-weak-residual", "--out", "{d}/report.txt"],
        {"report.txt": "e10553425e2ed072cb9ad0878cb4eb19affc80c83266cc9fbcec9e126c9f3c6f"},
    ),
}

LIST_PRESETS_SHA256 = "708543c55cf4627fbb28ac1f6e8cba38f2c4946edc941bb4108911772579f741"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("key", GOLDEN)
def test_output_bytes(key, tmp_path, capsys):
    argv, digests = GOLDEN[key]
    (tmp_path / "my-experiment.ini").write_text(MY_EXPERIMENT_INI)
    assert main([a.replace("{d}", str(tmp_path)) for a in argv]) == 0
    capsys.readouterr()
    for name, expect in digests.items():
        assert sha256((tmp_path / name).read_bytes()) == expect, name


def test_list_presets_bytes(capsys):
    assert main(["list-presets"]) == 0
    assert sha256(capsys.readouterr().out.encode("ascii")) == LIST_PRESETS_SHA256
