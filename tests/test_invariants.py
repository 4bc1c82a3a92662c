import ast
from pathlib import Path

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
