"""The package's import graph, its lazily resolved public names, and the CLI's numpy load."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dscodes

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(code, flags=(), environ=None):
    """stdout of code run in a fresh interpreter that imports dscodes from src/.

    environ maps variable names to the child's values; None removes one.
    """
    env = dict(os.environ)
    for name, value in (environ or {}).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
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


@pytest.mark.parametrize("argv", [
    ["code", "--family", "paley", "--p", "3", "--m", "3", "--expect", "thm-part2"],
    ["export-gen", "--family", "paley", "--p", "3", "--m", "3"],
])
def test_code_and_export_gen_add_only_codes(argv):
    code = f"from dscodes import cli\nassert cli.entry({argv!r}) == 0"
    assert _modules_after(code) == sorted(BASE + ["dscodes.codes"])


def test_a_claim_that_ranks_a_form_adds_boolfn():
    argv = ["code", "--family", "qf-image:1@4", "--p", "3", "--m", "3", "--expect", "thm-qfcodes"]
    code = f"from dscodes import cli\nassert cli.entry({argv!r}) == 0"
    assert _modules_after(code) == sorted(BASE + ["dscodes.boolfn", "dscodes.codes"])


def test_code_reads_the_default_work_budget_from_codes():
    code = ("from dscodes import cli\n"
            "rc = cli.entry(['code', '--family', 'paley', '--p', '3', '--m', '9'])\n"
            "from dscodes import codes\n"
            "args = cli.build_parser().parse_args(['code', '--family', 'paley'])\n"
            "print(rc, args.max_work, codes.DEFAULT_MAX_WORK)")
    out = _python(code).splitlines()[-1]
    assert out == f"0 None {1 << 34}"


def _imported_modules(tree):
    """The dscodes submodules a module's AST imports, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("dscodes."):
                    yield alias.name.split(".")[1]
        elif isinstance(node, ast.ImportFrom):
            # every module sits at the package's top level, so level 1 is dscodes
            path = node.module or ""
            if node.level == 0:
                if path.split(".")[0] != "dscodes":
                    continue
                path = path.partition(".")[2]
            if path:
                yield path.split(".")[0]
            else:  # "from . import cli" or "from dscodes import cli"
                yield from (alias.name for alias in node.names)


def test_only_the_cli_imports_the_cli():
    # the library never reaches back into its front end, not even inside a function
    pkg = Path(SRC) / "dscodes"
    modules = sorted(pkg.glob("*.py"))
    assert {path.stem for path in modules} >= {"cli", "codes", "verify"}
    offenders = [path.name for path in modules if path.stem != "cli"
                 and "cli" in set(_imported_modules(ast.parse(path.read_text(), str(path))))]
    assert offenders == []


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
    # each line names the exception one check raised and its message; -O
    # strips assert statements, so the checks must be plain raises
    code = """
import numpy as np
from dscodes import designs, gf

def raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
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
    out = _python(code, flags=("-O",)).splitlines()
    assert out == [
        "ValueError: defining set has duplicate elements",
        "ToolkitError: 9 outside GF(9)",
        "ToolkitError: x^3+x is not two-to-one on GF(2^5)",
        "InvariantError: exp table is not a permutation of GF(q)*: alpha is not primitive",
    ]


# -- the CLI's one-thread numpy load ------------------------------------------

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
BLAS = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="needs /proc to count threads")
THREADS = "import os\nprint(len(os.listdir('/proc/self/task')))"
ENV_VALUE = "import os\nprint(repr(os.environ.get('OPENBLAS_NUM_THREADS')))"


@needs_proc
def test_cli_loads_numpy_without_a_blas_worker():
    out = _python("import dscodes.cli\n" + THREADS, environ={"OPENBLAS_NUM_THREADS": "2"})
    assert out.split() == ["1"]


def test_cli_puts_the_callers_blas_threads_back():
    out = _python("import dscodes.cli\n" + ENV_VALUE, environ={"OPENBLAS_NUM_THREADS": "2"})
    assert out.split() == ["'2'"]


def test_cli_leaves_an_unset_blas_threads_unset():
    out = _python("import dscodes.cli\n" + ENV_VALUE, environ={"OPENBLAS_NUM_THREADS": None})
    assert out.split() == ["None"]


LIBRARY = "".join(f"import dscodes.{m}\n" for m in sorted(dscodes._EXPORTS))


def test_library_modules_leave_the_environment_alone():
    code = ("import os, numpy\nbefore = dict(os.environ)\n" + LIBRARY
            + "print(os.environ == before)\n" + ENV_VALUE)
    out = _python(code, environ={"OPENBLAS_NUM_THREADS": "2"})
    assert out.split() == ["True", "'2'"]


@needs_proc
@pytest.mark.skipif(CPUS < 2, reason="OpenBLAS starts no worker on one CPU")
@pytest.mark.skipif("openblas" not in BLAS, reason=f"numpy uses {BLAS}, not OpenBLAS")
def test_library_modules_keep_the_callers_blas_pool():
    out = _python("import numpy\n" + LIBRARY + THREADS, environ={"OPENBLAS_NUM_THREADS": "2"})
    assert out.split() == ["2"]
