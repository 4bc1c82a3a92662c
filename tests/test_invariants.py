import ast
import importlib.util
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


def test_package_has_no_assert_statements():
    # python -O strips assert statements, and a raised AssertionError escapes
    # the CLI's ToolkitError handling; invariants must raise InvariantError
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _is_assertion(node)]
    assert found == []


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
