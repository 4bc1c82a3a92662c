import ast
import importlib.util
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

from dscodes import verify

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dscodes"


def _is_assertion(node):
    if isinstance(node, ast.Assert):
        return True
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return False


def _package_nodes_where(pred):
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    return [f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for path in sources
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if pred(node)]


def test_package_has_no_assert_statements():
    # python -O strips assert statements, and a raised AssertionError escapes
    # the CLI's ToolkitError handling; invariants must raise InvariantError
    assert _package_nodes_where(_is_assertion) == []


FLOAT_NAMES = {"float16", "float32", "float64", "fft", "linalg"}


def _mentioned_names(node):
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}  # dtype="float32"
    if isinstance(node, ast.alias):
        return set(node.name.split("."))
    if isinstance(node, ast.ImportFrom):
        return set((node.module or "").split("."))
    return set()


def test_package_has_no_floating_point():
    # every count, rank and weight is exact integer arithmetic; a float dtype,
    # an FFT or a floating-point solver would need a written exactness bound
    assert _package_nodes_where(lambda node: _mentioned_names(node) & FLOAT_NAMES) == []


def _load_trace_child():
    path = PACKAGE.parents[1] / "perfbench" / "trace_child.py"
    spec = importlib.util.spec_from_file_location("perfbench_trace_child", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_hooks_exist():
    # perfbench times each layer by rebinding these names; a renamed or removed
    # function would silently drop its layer from every benchmark report
    trace_child = _load_trace_child()
    assert trace_child.FUNCTION_SPANS and trace_child.VERIFY_CACHES
    missing = [f"{mod.__name__}.{name}" for mod, name, _ in trace_child.FUNCTION_SPANS
               if not callable(getattr(mod, name, None))]
    missing += [f"dscodes.verify.{name}" for name in trace_child.VERIFY_CACHES
                if not hasattr(getattr(verify, name, None), "cache_info")]
    assert missing == []


def test_verify_cases_match_the_benchmark_record():
    # the benchmark counts a case missing from its record as a failed op, so an
    # added or renamed case must show up here first
    path = PACKAGE.parents[1] / "perfbench" / "expected.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))["verify_paper"]
    assert sorted(verify.CASES) == sorted(recorded)


def _outcome(report):
    return report.verdict, report.expected, report.actual, report.detail


@lru_cache(maxsize=None)
def run_cases():
    """Each case id's verdict, expected, actual and detail from one full run."""
    return {r.case_id: _outcome(r) for r in verify.run_cases()}


def test_each_case_reports_the_same_alone_from_cold_caches():
    # a case must not lean on what an earlier case left in a cache, nor on the
    # order in which the registry runs
    caches = [fn for fn in vars(verify).values()
              if hasattr(fn, "cache_clear") and fn.__module__ == verify.__name__]
    assert len(caches) == 5
    together = run_cases()
    alone = {}
    for cid in sorted(verify.CASES):
        for cache in caches:
            cache.cache_clear()
        alone[cid] = _outcome(verify.run_case(cid))
    assert alone == together


def test_every_recorded_case_reports_its_recorded_strings():
    # verify_paper_record.json holds each case's verdict, expected, actual and
    # detail as the registry gave them at commit 44cc906: it pins the output
    # contract, not any case's expected value.  A new id needs no record.
    path = Path(__file__).resolve().parent / "verify_paper_record.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    got = run_cases()
    assert {cid: got.get(cid) for cid in recorded} == {
        cid: (r["verdict"], r["expected"], r["actual"], r["detail"])
        for cid, r in recorded.items()}


def _raised_name(node):
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", None)  # the package raises its errors by bare name
    return None


def test_every_error_class_is_raised_somewhere():
    # an error class that nothing raises is dead API: a caller catching it
    # guards a failure that cannot happen
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    declared = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert "ToolkitError" in declared and len(declared) > 1
    raised = {_raised_name(node) for path in sorted(PACKAGE.rglob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))}
    assert sorted(declared - raised - {"ToolkitError"}) == []


def _is_literal_message(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value != ""
    return isinstance(node, ast.JoinedStr) and bool(node.values)


def test_every_toolkit_error_is_raised_with_a_message():
    # refusals share a few classes, so the message alone tells one from
    # another: each raise passes exactly one non-empty string or f-string
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    declared = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    bare = _package_nodes_where(
        lambda node: _raised_name(node) in declared
        and not (isinstance(node.exc, ast.Call) and not node.exc.keywords
                 and len(node.exc.args) == 1 and _is_literal_message(node.exc.args[0])))
    assert bare == []


# counts the Field calls whose arguments are all 0-d while every case runs once
_COUNT_SCALAR_CALLS = """
import numpy as np
from dscodes import gf, verify

calls = 0


def counted(method):
    def wrapper(self, *args):
        global calls
        calls += all(np.ndim(a) == 0 for a in args)
        return method(self, *args)
    return wrapper


for name in ("add", "neg", "sub", "mul", "pow", "trace"):
    setattr(gf.Field, name, counted(getattr(gf.Field, name)))
reports = verify.run_cases()
print(calls, all(r.verdict == "pass" for r in reports))
"""


def test_verify_makes_few_scalar_field_calls():
    # the registry builds its samples and coefficient rows as arrays: a case
    # that loops over field elements one call at a time shows up here.  A
    # fresh process, so no earlier test has filled verify's caches.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _COUNT_SCALAR_CALLS], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls, passed = proc.stdout.split()
    assert passed == "True" and int(calls) <= 20, proc.stdout
