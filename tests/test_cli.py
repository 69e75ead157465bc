"""End-to-end tests of the command line interface: output shapes,
documented examples, reproducibility, and exit codes."""

import json
import os
import re
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


@pytest.mark.parametrize("case_args", [
    ["--case", "III", "--k1", "1", "--k2", "1"],
    ["--case", "IV", "--n", "1"],
    ["--case", "X", "--m", "3", "--k", "1", "--n", "0"],
], ids=["III", "IV", "X"])
def test_pfaffian_weights_on_every_complex_case(capsys, case_args):
    # III, IV and X have complex V, so they report the weight Pfaffian
    rc, out = _run(capsys, ["pfaffian", *case_args, "--lambda", "random"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "SquareIntegrable"
    assert doc["pfaffian_weights"] > 0.0
    assert doc["rel_deviation"] <= 1e-9


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


@pytest.mark.parametrize("n,lam", [(1, "-1.5"), (2, "-0.8"), (1, "random"), (2, "random")])
def test_spherical_vii_rows_match_the_library(capsys, n, lam):
    # the central coordinate of psi is the pairing <y, z> of z with the
    # unit direction y of the functional, not the coordinate z_0
    argv = ["spherical", "--case", "VII", "--n", str(n), "--lambda", lam, "--z-norm", "0.7",
            "--v-norm", "0.5", "--points", "4", "--format", "json"]
    signs = set()
    for seed in (range(6) if lam == "random" else (0,)):
        rc, out = _run(capsys, argv + ["--seed", str(seed)])
        assert rc == 0
        alg = nilharm.build_case("VII", n=n)
        x = cli.functional_from_args(alg, cli.build_parser().parse_args(argv + ["--seed", str(seed)]))
        idx = nilharm.spherical.spherical_index(alg, x, 0)
        signs.add(np.sign(idx.functional.y[0]))
        for row in json.loads(out)["rows"]:
            point = np.array([float(c) for c in row[3].split(";")])
            z, v = point[: alg.dim_g], point[alg.dim_g:]
            want = nilharm.spherical.psi_closed(idx, float(idx.functional.y @ z), v)
            assert (row[4], row[5]) == (want.real, want.imag)
    # the sweep reaches a negative pairing, where the sign matters
    assert -1.0 in signs


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



def test_density_at_the_origin_prints_no_negative_zero(capsys):
    # the chart of x = 0 has angles +0.0, so the h columns print 0, not -0
    rc, out = _run(capsys, ["density", "--case", "I", "--n", "1", "--H", "0,0", "--points", "1"])
    assert rc == 0
    assert out.splitlines()[-2:] == ["s,h1,h2,theta,pfaffian,density", "1,0,0,0,0,0"]

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


@pytest.mark.parametrize("verb", ["build", "classify", "pfaffian", "invert"])
def test_json_verbs_take_no_format(capsys, verb):
    # only density and spherical have a second encoding
    argv = [verb, "--case", "VII", "--n", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", "json"])
    assert exc.value.code == 2
    capsys.readouterr()
    rc, out = _run(capsys, argv)
    assert rc == 0 and "format" not in json.loads(out)["config"]


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
    ["build", "--case", "I"],
    ["classify", "--case", "V", "--lambda", "1"],
], ids=["build-I", "classify-V"])
def test_missing_case_parameter_exits_2(capsys, argv):
    # before, the model read params["n"] and the KeyError reached the
    # user as a traceback with exit code 1
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: case {argv[2]} needs the parameter 'n'\n"


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


@pytest.mark.parametrize("argv", [
    ["density", "--case", "V", "--n", "3", "--points", "0"],
    ["density", "--case", "V", "--n", "3", "--points", "-2"],
    ["spherical", "--case", "VII", "--n", "1", "--points", "0"],
    ["spherical", "--case", "VII", "--n", "1", "--lambda", "0", "--j", "2"],
    ["spherical", "--case", "IX", "--n", "3", "--index", "1,0,1", "--mc-samples", "1"],
    ["spherical", "--case", "IX", "--n", "3", "--index", "1,0"],
    ["spherical", "--case", "VII", "--n", "1", "--j", "-1"],
    ["invert", "--case", "VII", "--n", "1", "--grid", "0"],
    ["invert", "--case", "VII", "--n", "1", "--j", "-1"],
    ["spherical", "--case", "I", "--n", "1", "--index", "1,2", "--points", "3"],
    ["density", "--case", "IV", "--n", "1", "--H", "1"],
    ["density", "--case", "I", "--n", "1", "--H", "1,-1,0"],
    ["density", "--case", "VI", "--n", "4", "--H", "1,0.5,0.2"],
    ["density", "--case", "V", "--n", "3", "--H", "1,0,-1;2"],
], ids=["density-points-0", "density-points-negative", "spherical-points-0",
        "spherical-zero-lambda", "mc-samples-1", "short-index", "spherical-j-negative",
        "grid-0", "invert-j-negative", "caseI-long-index", "H-missing-angle",
        "H-surplus-angle", "H-surplus-so-angle", "H-surplus-group"])
def test_bad_input_is_an_error_line_and_exit_2(capsys, argv):
    # main returns 2 instead of raising, so no traceback reaches the user
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["density", "--case", "VII", "--n", "1", "--lambda", "nan"],
    ["density", "--case", "VII", "--n", "1", "--Z", "inf"],
    ["classify", "--case", "V", "--n", "3", "--lambda", "inf"],
    ["pfaffian", "--case", "V", "--n", "3", "--H", "1,nan,-1"],
    ["spherical", "--case", "I", "--n", "1", "--z-norm", "nan"],
    ["spherical", "--case", "I", "--n", "1", "--v-norm=-inf"],
], ids=["lambda-nan", "Z-inf", "lambda-inf", "H-nan", "z-norm-nan", "v-norm-minus-inf"])
def test_non_finite_number_exits_2(capsys, argv):
    # each is rejected as it is parsed; before, the run printed density 0
    # or NaN rows with exit 0, met inf * 0, or failed in an eigensolver
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: expected a finite number") and captured.err.count("\n") == 1


@pytest.mark.parametrize("case", ["I", "VII"])
def test_overflowing_frequency_exits_2(capsys, case):
    # lam |z| = 1e309 has no finite spherical function value
    argv = ["spherical", "--case", case, "--n", "1", "--lambda", "1e308", "--z-norm", "10",
            "--points", "1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# every case off the exception list (II, and VI with odd n)
REGULAR_CASES = [
    ("I", "--n", "1"), ("I", "--n", "2"),
    ("III", "--k1", "1", "--k2", "1"), ("III", "--k1", "1", "--k2", "2"),
    ("III", "--k1", "0", "--k2", "1"), ("III", "--k1", "2", "--k2", "0"),
    ("IV", "--n", "1"), ("IV", "--n", "2"),
    ("V", "--n", "3"), ("V", "--n", "4"), ("V", "--n", "5"),
    ("VI", "--n", "2"), ("VI", "--n", "4"), ("VI", "--n", "6"),
    ("VII", "--n", "1"), ("VII", "--n", "3"),
    ("VIII", "--k", "1", "--n", "0"), ("VIII", "--k", "1", "--n", "1"),
    ("VIII", "--k", "2", "--n", "1"),
    ("IX", "--n", "3"), ("IX", "--n", "4"), ("IX", "--n", "5"),
    ("X", "--m", "3", "--k", "1", "--n", "1"), ("X", "--m", "4", "--k", "2", "--n", "0"),
]


@pytest.mark.parametrize("case", REGULAR_CASES, ids=lambda c: c[0] + "".join(c[2::2]))
def test_default_direction_is_square_integrable(capsys, case):
    rc, out = _run(capsys, ["classify", "--case", *case])
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "SquareIntegrable"
    assert abs(np.linalg.norm(doc["functional"]) - 1.0) < 1e-12


def test_default_direction_on_the_exception_list(capsys):
    rc, out = _run(capsys, ["classify", "--case", "II", "--n", "1"])
    assert rc == 0 and json.loads(out)["verdict"] == "Degenerate"
    # so(odd n) has no root system here, so there is no chamber to use
    assert cli.main(["classify", "--case", "VI", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--lambda random" in captured.err


@pytest.mark.parametrize("case, index", [
    (("IX", "--n", "3"), "0;0;0"),
    (("V", "--n", "4"), "0;0;0;0"),
    (("III", "--k1", "1", "--k2", "1"), "0;0;0;0"),
    (("VIII", "--k", "1", "--n", "1"), "0;0;0;0"),
    (("VII", "--n", "2"), "0"),
], ids=["IX3", "V4", "III11", "VIII11", "VII2"])
def test_spherical_default_index_is_degree_zero_per_run(capsys, case, index):
    rc, out = _run(capsys, ["spherical", "--case", *case, "--points", "2", "--mc-samples", "200"])
    assert rc == 0
    rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith("#")][1:]
    assert len(rows) == 2 and all(row[2] == index for row in rows)
    # the degree-0 function is 1 at the identity
    assert float(rows[0][4]) == pytest.approx(1.0, abs=1e-12)


def test_spherical_viii_gl_label_sits_on_an_empty_run(capsys):
    # VIII (k = 1) indexes (r, s, 0, l) by its runs (1, 1, 0, 2n): a GL(k)
    # label j > 0 is a degree on the empty third run
    assert cli.main(["spherical", "--case", "VIII", "--k", "1", "--n", "1", "--index", "0,0,1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "empty run" in captured.err


def test_spherical_default_index_on_a_case_with_no_runs_exits_2(capsys):
    assert cli.main(["spherical", "--case", "IV", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no K_x-type runs" in captured.err


@pytest.mark.parametrize("argv", [
    ("--case", "IV", "--n", "1", "--index", "0,0,0,0"),
    ("--case", "II", "--n", "1", "--index", "0"),
], ids=["IV", "II"])
def test_spherical_index_on_a_case_with_no_runs_names_the_reason(capsys, argv):
    # an explicit --index cannot help: the case has no runs to index
    assert cli.main(["spherical", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no K_x-type runs" in captured.err


def test_spherical_v3_with_default_direction(capsys):
    # the default V(3) direction has no zero angle, so phi_orbit accepts it
    rc, _ = _run(capsys, ["spherical", "--case", "V", "--n", "3", "--index", "1,0,2",
                          "--points", "2", "--mc-samples", "200"])
    assert rc == 0


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_budget_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("NILHARM_BUDGET", "1000")
    rc = cli.main(["invert", "--case", "VII", "--n", "1", "--j", "10", "--grid", "48"])
    capsys.readouterr()
    assert rc == 2


def test_build_checks_its_structure_tables_against_the_budget(monkeypatch, capsys):
    # VI(8) has dim_g = 28: its 28^4 = 614,656-entry Jacobi table is over the cap
    monkeypatch.setenv("NILHARM_BUDGET", "100000")
    assert cli.main(["build", "--case", "VI", "--n", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 28^4 Jacobi-table entries exceed NILHARM_BUDGET=100000\n"


def test_spherical_checks_its_orbit_forms_against_the_budget(monkeypatch, capsys):
    # IX(5): 40 orbit samples of 10^2 entries fit under 5000, the one
    # 10^4-entry Kronecker form of the orbit pairing does not
    monkeypatch.setenv("NILHARM_BUDGET", "5000")
    argv = ["spherical", "--case", "IX", "--n", "5", "--index", "0,0,0,0,0",
            "--mc-samples", "40", "--points", "1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 1 x 10^4 Kronecker-form entries exceed NILHARM_BUDGET=5000\n"

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


# one small valid invocation per verb (and per code path of spherical and
# invert); the fuzz sets one flag at a time to a bad value
FUZZ_BASES = {
    "build": ["build", "--case", "VII", "--n", "2"],
    "classify": ["classify", "--case", "V", "--n", "3", "--lambda", "1.5"],
    "pfaffian": ["pfaffian", "--case", "IX", "--n", "3", "--lambda", "1.5"],
    "density": ["density", "--case", "V", "--n", "3", "--points", "3"],
    "spherical-I": ["spherical", "--case", "I", "--n", "1", "--j", "1", "--points", "3"],
    "spherical-VII": ["spherical", "--case", "VII", "--n", "2", "--points", "3"],
    "spherical-IX": ["spherical", "--case", "IX", "--n", "3", "--index", "1,0,1", "--points", "2",
                     "--mc-samples", "50"],
    "invert-VII": ["invert", "--case", "VII", "--j", "4", "--grid", "8"],
    "invert-I": ["invert", "--case", "I", "--j", "4", "--grid", "4", "--mc-samples", "50"],
    "selftest": ["selftest"],
}
FUZZ_VALUES = ["nan", "inf", "1e308", "-1", "1.5", ""]


def _with_flag(base, flag, value):
    argv = list(base)
    if flag in argv:
        at = argv.index(flag)
        del argv[at:at + 2]
    return argv + [f"{flag}={value}"]


@pytest.mark.parametrize("name", list(FUZZ_BASES))
def test_cli_fuzz_exits_0_or_2_and_writes_only_finite_numbers(monkeypatch, capsys, name):
    monkeypatch.setenv("NILHARM_BUDGET", "200000")
    base = FUZZ_BASES[name]
    parser = next(a for a in cli.build_parser()._actions if a.choices).choices[base[0]]
    flags = [f for a in parser._actions for f in a.option_strings
             if f.startswith("--") and f not in ("--help", "--out")]
    assert cli.main(base) == 0
    capsys.readouterr()
    for flag in flags:
        for value in FUZZ_VALUES:
            argv = _with_flag(base, flag, value)
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the token
                rc = exc.code
            out = capsys.readouterr().out
            assert rc in (0, 2), argv
            assert not re.search(r"\b-?(nan|inf|infinity)\b", out, re.IGNORECASE), argv
