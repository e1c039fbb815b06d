import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cycperm"


def _top_level_imports(tree: ast.Module):
    """(bound name, line) of every import at module level, including those
    under a module-level if or try; __future__ imports bind no name."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
            stack += [s for h in getattr(node, "handlers", []) for s in h.body]
        elif isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno


def test_library_modules_use_every_import():
    # an import a module never uses is dead weight; one kept on purpose
    # says so with "# noqa: F401" on its line
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for name, line in _top_level_imports(tree):
            if name not in used and "# noqa: F401" not in lines[line - 1]:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []
