"""End-to-end tests of the command line interface: output shapes,
documented examples, reproducibility, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nilharm
from nilharm import cli

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out


def test_classify_degenerate_example(capsys):
    rc, out = _run(capsys, ["classify", "--case", "II", "--n", "1", "--lambda", "random"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Degenerate"
    assert doc["kernel_dim"] >= 1
    assert doc["pfaffian_numeric"] == 0.0


def test_classify_square_integrable(capsys):
    rc, out = _run(capsys, ["classify", "--case", "VII", "--n", "2", "--lambda", "1.5"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "SquareIntegrable"
    assert doc["kernel_dim"] == 0


def test_pfaffian_heisenberg_example(capsys):
    rc, out = _run(capsys, ["pfaffian", "--case", "VII", "--n", "3", "--lambda", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert abs(doc["pfaffian_numeric"] - 8.0) < 1e-9
    assert abs(doc["pfaffian_weights"] - 8.0) < 1e-9
    assert doc["rel_deviation"] < 1e-12


def test_spherical_zero_of_angular_factor(capsys):
    # at |z| = pi and lam = 1 the sphere average sin(pi)/pi vanishes
    rc, out = _run(capsys, [
        "spherical", "--case", "I", "--n", "1", "--j", "0",
        "--lambda", "1", "--z-norm", "3.14159265358979", "--points", "3",
    ])
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert lines[0].split(",")[:4] == ["case", "lambda", "index", "point"]
    for row in lines[1:]:
        fields = row.split(",")
        assert abs(float(fields[4])) < 1e-10
    assert len(lines) == 4


def test_build_reports_dimensions(capsys):
    rc, out = _run(capsys, ["build", "--case", "IX", "--n", "3"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["dim_g"] == 9
    assert doc["dim_gp"] == 8
    assert doc["dim_c"] == 1
    assert doc["dim_v"] == 6
    pi = np.array([[[c["re"] if isinstance(c, dict) else c for c in row] for row in mat]
                   for mat in doc["pi"]])
    assert pi.shape == (9, 6, 6)
    res = doc["structure_residuals"]
    assert all(v < 1e-10 for v in res.values())


def test_density_csv_structure(capsys):
    rc, out = _run(capsys, [
        "density", "--case", "VII", "--n", "2", "--lambda", "1.5", "--points", "5",
    ])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    header = data[0].split(",")
    assert header == ["s", "z1", "theta", "pfaffian", "density"]
    assert len(data) == 6
    for row in data[1:]:
        s, z1, theta, pf, dens = (float(t) for t in row.split(","))
        assert theta == 1.0
        assert abs(pf - (1.5 * s) ** 2) < 1e-12
        assert abs(dens - pf) < 1e-12


def test_invert_heisenberg_reduced(capsys):
    rc, out = _run(capsys, [
        "invert", "--case", "VII", "--n", "1", "--j", "10", "--grid", "48",
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["target"] == "heisenberg"
    assert max(doc["per_point_error"]) < 1e-5
    assert abs(doc["fitted_c"] - doc["classical_c"]) < 1e-4 * doc["classical_c"]
    assert doc["truncation"]["J"] == 10
    assert doc["passed"] is True


def test_invert_caseI_reduced(capsys):
    rc, out = _run(capsys, [
        "invert", "--case", "I", "--n", "1", "--j", "12", "--grid", "16",
        "--mc-samples", "800", "--seed", "3",
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["target"] == "case-I-identity"
    assert doc["consistent"] is True
    assert doc["spread"] <= 3.0 * doc["combined_sigma"]


def test_byte_reproducibility_with_mc(capsys):
    argv = [
        "spherical", "--case", "IX", "--n", "3", "--lambda", "1.2",
        "--index", "1,0,1", "--points", "3", "--mc-samples", "2000", "--seed", "11",
    ]
    rc1, out1 = _run(capsys, argv)
    rc2, out2 = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "stderr" in out1.splitlines()[2]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "verdict.json"
    rc, out = _run(capsys, [
        "classify", "--case", "V", "--n", "3", "--lambda", "random",
        "--seed", "4", "--out", str(target),
    ])
    assert rc == 0
    assert f"wrote {target}" in out
    doc = json.loads(target.read_text())
    assert doc["verdict"] == "SquareIntegrable"


def test_bad_arguments_exit_2(capsys):
    assert cli.main(["classify", "--case", "Q", "--lambda", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["density", "--case", "VII", "--n", "1",
                     "--H", "1.0", "--Z", "1.0"]) == 2
    capsys.readouterr()
    assert cli.main(["invert", "--case", "V", "--n", "3"]) == 2
    capsys.readouterr()
    assert cli.main(["classify", "--case", "VII", "--n", "1",
                     "--lambda", "random", "--Z", "2.0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--case", "VII", "--n", "1", "--j", "-1"],
    ["--case", "VII", "--n", "1", "--grid", "0"],
    ["--case", "I", "--n", "1", "--j", "-1"],
    ["--case", "I", "--n", "1", "--mc-samples", "0"],
    ["--case", "I", "--n", "1", "--mc-samples", "1"],
])
def test_invert_bad_sizes_exit_2(capsys, argv):
    assert cli.main(["invert", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_spherical_single_mc_sample_exits_2(capsys):
    # one orbit sample carries no standard error
    argv = ["spherical", "--case", "IX", "--n", "3", "--index", "1,0,1", "--mc-samples", "1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "samples >= 2" in captured.err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_budget_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("NILHARM_BUDGET", "1000")
    rc = cli.main(["invert", "--case", "VII", "--n", "1", "--j", "10", "--grid", "48"])
    capsys.readouterr()
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["spherical", "--case", "IX", "--n", "3", "--lambda", "1.2", "--index", "1,0,1",
     "--points", "1", "--mc-samples", "2000"],
    ["invert", "--case", "I", "--n", "1", "--mc-samples", "800"],
])
def test_mc_samples_budget_exits_2(monkeypatch, capsys, argv):
    # 2000 * 6^2 and 800 * 4^2 orbit-sample entries exceed the cap
    monkeypatch.setenv("NILHARM_BUDGET", "1000")
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "orbit samples" in captured.err and "NILHARM_BUDGET=1000" in captured.err


def test_selftest_passes(capsys):
    rc, out = _run(capsys, ["selftest", "--seed", "0"])
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[-1] == "8/8 checks passed"
    assert all(ln.startswith("PASS") for ln in lines[:-1])


def _run_without_scipy(code, *args):
    """Run code in a fresh interpreter in which every scipy import
    fails, with this nilharm first on the path."""
    env = dict(os.environ)
    src = str(Path(nilharm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    guard = 'import sys\nsys.modules["scipy"] = None\n'
    return subprocess.run([sys.executable, "-c", guard + code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_runtime_needs_no_scipy():
    # selftest, plus a so(4) chamber reduction (the weight Pfaffian of
    # case VI), which no selftest check and no demo reaches
    proc = _run_without_scipy(
        "import nilharm, nilharm.cli\n"
        "rc = nilharm.cli.main(['selftest'])\n"
        "rc |= nilharm.cli.main(['pfaffian', '--case', 'VI', '--n', '4', '--lambda', 'random'])\n"
        "assert not [m for m in sys.modules if m.startswith('scipy.')]\n"
        "sys.exit(rc)\n")
    assert proc.returncode == 0, proc.stderr
    assert "8/8 checks passed" in proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_without_scipy(demo):
    proc = _run_without_scipy(
        "import runpy\nsys.argv = sys.argv[1:]\nrunpy.run_path(sys.argv[0], run_name='__main__')\n",
        str(demo))
    assert proc.returncode == 0, proc.stderr
