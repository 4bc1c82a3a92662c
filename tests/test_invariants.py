import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dscodes"


def test_package_has_no_assert_statements():
    # python -O strips assert statements; invariants must raise InvariantError
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
