"""The package's import graph and its lazily resolved public names."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dscodes

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(code, flags=()):
    """stdout of code run in a fresh interpreter that imports dscodes from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after(code):
    """The dscodes modules loaded once code has run in a fresh interpreter."""
    out = _python(code + "\nimport json, sys\n"
                  "print(json.dumps(sorted(m for m in sys.modules if m.startswith('dscodes'))))")
    return json.loads(out.splitlines()[-1])


BASE = ["dscodes", "dscodes.cli", "dscodes.cyclotomic", "dscodes.designs",
        "dscodes.errors", "dscodes.gf"]


def test_importing_the_package_loads_no_submodule():
    assert _modules_after("import dscodes") == ["dscodes"]


def test_construct_loads_neither_codes_nor_boolfn_nor_verify():
    code = ("from dscodes import cli\n"
            "cli.entry(['construct', '--family', 'maschietti:segre', '--m', '5', '--classify'])")
    assert _modules_after(code) == BASE


def test_walsh_adds_only_boolfn():
    code = "from dscodes import cli\ncli.entry(['walsh', '--func', '1@3', '--m', '5'])"
    assert _modules_after(code) == sorted(BASE + ["dscodes.boolfn"])


def test_code_reads_the_default_work_budget_from_codes():
    code = ("from dscodes import cli\n"
            "rc = cli.entry(['code', '--family', 'paley', '--p', '3', '--m', '9'])\n"
            "from dscodes import codes\n"
            "args = cli.build_parser().parse_args(['code', '--family', 'paley'])\n"
            "print(rc, args.max_work, codes.DEFAULT_MAX_WORK)")
    out = _python(code).splitlines()[-1]
    assert out == f"0 None {1 << 34}"


@pytest.mark.parametrize("name", dscodes.__all__)
def test_public_name_is_its_submodules_object(name):
    obj = getattr(dscodes, name)
    home = obj.__module__
    assert home.startswith("dscodes.") and getattr(sys.modules[home], name) is obj


def test_star_import_and_dir_cover_all():
    ns = {}
    exec("from dscodes import *", ns)
    assert set(dscodes.__all__) <= set(ns)
    assert set(dscodes.__all__) <= set(dir(dscodes))
    assert dscodes.__all__ == sorted(set(dscodes.__all__))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dscodes.no_such_name  # noqa: B018


def test_checks_still_raise_under_python_O():
    # each line names the exception one check raised; -O strips assert
    # statements, so the checks must be plain raises
    code = """
import numpy as np
from dscodes import designs, gf

def raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc).__name__
    return "nothing"

F = gf.Field(3, 2)
print(raised(designs.defining_set, F, [4, 1, 4]))
print(raised(designs.defining_set, F, [1, 2, 9]))
designs.maschietti_rho = lambda m, case: 3
print(raised(designs.maschietti_set, gf.Field(2, 5), "segre"))
G = gf.Field(3, 2)
G.modulus = (1, 0, 1)  # x^2 + 1: x has order 4, not 8
print(raised(G._ensure_tables))
"""
    out = _python(code, flags=("-O",)).split()
    assert out == ["ValueError", "ElementNotInGroupError", "NotTwoToOneError", "InvariantError"]
