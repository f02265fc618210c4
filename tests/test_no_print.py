"""Library code reports through logging or returned records, never through
print; only the command-line front end, cli.py, writes to the terminal."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "rbfcors"


def print_calls(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


def test_library_modules_never_print():
    modules = sorted(path for path in SOURCE.glob("*.py") if path.name != "cli.py")
    assert SOURCE / "rbf.py" in modules
    assert [call for path in modules for call in print_calls(path)] == []


def test_rule_sees_a_print_call(tmp_path):
    module = tmp_path / "noisy.py"
    module.write_text("def f(x):\n    print(x)\n", encoding="utf-8")
    assert print_calls(module) == ["noisy.py:2"]
