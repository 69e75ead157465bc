"""The package namespace: its exports load their submodules on first use,
and cold starts load only the modules they run.

The load sets are read from sys.modules in fresh interpreters, since
this process has long since imported every submodule.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nilharm

BUILD_MODULES = ["algebra", "cases", "numerics", "quat", "torus"]


def _loaded_after(code):
    """The nilharm submodules (short names, sorted) that a fresh
    interpreter has loaded after running code, with this nilharm first on
    the path."""
    env = dict(os.environ)
    src = str(Path(nilharm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    report = ("import json, sys\n"
              "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules "
              "if m.startswith('nilharm.'))))\n")
    proc = subprocess.run([sys.executable, "-c", code + "\n" + report], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert _loaded_after("import nilharm") == []


def test_build_case_loads_only_the_build_path():
    assert _loaded_after("import nilharm\nnilharm.build_case('V', n=3)") == BUILD_MODULES


@pytest.mark.parametrize("argv", [["classify", "--case", "V", "--n", "3", "--lambda", "random"],
                                  ["build", "--case", "IX", "--n", "3"],
                                  ["pfaffian", "--case", "VII", "--n", "2", "--lambda", "random"]],
                         ids=lambda argv: argv[0])
def test_cli_verbs_without_spherical_functions_skip_their_modules(argv):
    code = f"import io, contextlib, nilharm.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n" \
           f"    assert nilharm.cli.main({argv!r}) == 0"
    assert _loaded_after(code) == sorted([*BUILD_MODULES, "cli", "forms"])


def test_every_export_is_its_submodules_own_object():
    assert len(set(nilharm.__all__)) == len(nilharm.__all__)
    for name in nilharm.__all__:
        if name == "__version__":
            continue
        home = nilharm._HOME[name]
        assert getattr(nilharm, name) is getattr(getattr(nilharm, home), name), name
    # the one entry point for spherical functions is exported
    assert nilharm.phi is nilharm.spherical.phi


def test_dir_lists_every_export_and_submodule():
    listed = dir(nilharm)
    assert set(nilharm.__all__) <= set(listed)
    assert {"algebra", "spherical", "plancherel", "cli"} <= set(listed)


def test_submodules_resolve_after_a_bare_import():
    code = "import nilharm\nassert nilharm.spherical.phi is nilharm.phi"
    assert "spherical" in _loaded_after(code)


def test_exports_are_read_through_not_cached():
    # a patched submodule attribute shows through the package and leaves
    # nothing behind when it is restored (the benchmark tracer does this)
    original = nilharm.algebra.build_case
    nilharm.algebra.build_case = marker = object()
    try:
        assert nilharm.build_case is marker
    finally:
        nilharm.algebra.build_case = original
    assert nilharm.build_case is original
    assert "build_case" not in vars(nilharm)


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "_HOME_", "laguerre_floats"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(nilharm, name)
    assert not hasattr(nilharm, "np")
