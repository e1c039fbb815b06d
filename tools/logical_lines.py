"""Count the logical lines of each module of src/cycperm and their total.

A logical line here is a physical source line that is not blank, not a
comment and not part of a docstring (the leading string of a module, class
or function).  Run from anywhere:

    python3 tools/logical_lines.py
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cycperm"


def logical_lines(source: str) -> int:
    docstring_lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            doc = node.body[0]
            docstring_lines.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if i not in docstring_lines and line.strip()
               and not line.strip().startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = logical_lines(path.read_text())
        total += count
        print(f"{path.name:20} {count:6,}")
    print(f"{'total':20} {total:6,}")


if __name__ == "__main__":
    main()
