import ast
import importlib
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


def _referenced_names(tree: ast.Module):
    """Every identifier a module uses, imports or names in a string
    constant (perfbench wraps library functions by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_library_function_and_class_is_referenced():
    # a module-level function or class that nothing in the library, the
    # tests or the benchmark uses is dead code
    root = PACKAGE.parent.parent
    used = set()
    for path in [*root.joinpath("src").rglob("*.py"), *root.joinpath("tests").rglob("*.py"),
                 *root.joinpath("perfbench").rglob("*.py")]:
        used.update(_referenced_names(ast.parse(path.read_text())))
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]
    assert unused == []


def test_every_traced_function_is_bound():
    # the benchmark wraps library functions by name (perfbench/tracing.py's
    # TRACED, read here without importing it); a library change that drops
    # one must fail here, not only in the benchmark's own tests
    tracing = ast.parse((PACKAGE.parent.parent / "perfbench" / "tracing.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tracing.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))
    unbound = [f"{mod}.{fn}" for mod, fns in traced.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"cycperm.{mod}"), fn, None))]
    assert traced and unbound == []


def test_chains_are_grown_and_stored_by_permgroup_alone():
    # PermGroup.from_rows is the one place a group's chain is grown and
    # kept: no module writes the _chain slot outside class PermGroup, and
    # none calls StabilizerChain( outside perm.py but the backtrack search
    # autgroups._search, which grows the group it finds on its own base
    slot_writes, chains = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', '')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Attribute) \
                        and node.value.attr == "__dict__" \
                        and isinstance(node.slice, ast.Constant) and node.slice.value == "_chain" \
                        and where != "perm.PermGroup":
                    slot_writes.append(f"{where}:{node.lineno}")
                if isinstance(node, ast.Call) and "StabilizerChain" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)) \
                        and path.stem != "perm" and where != "autgroups._search":
                    chains.append(f"{where}:{node.lineno}")
    assert (slot_writes, chains) == ([], [])
