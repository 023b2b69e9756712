"""Every top-level name in the library has a product caller, and every
imported name is used.

A function, class or module-level variable defined at the top of a
`src/ltlqbe` module must be loaded somewhere in the library outside its own
statement, be exported in `ltlqbe.__all__`, or be a name the benchmark's
spans wrap (`perfbench/spans.py` `TARGETS`).  References that only tests use
live under `tests/`.  A name that a module under `src/` or `tests/` imports
must be loaded in that module, be re-exported in its `__all__`, or be a
`conftest` fixture that the module takes as a parameter.
"""

import ast
import importlib.util
from pathlib import Path

import ltlqbe

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ltlqbe"
TESTS = ROOT / "tests"
SPANS = ROOT / "perfbench" / "spans.py"


def _span_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _, attr in module.TARGETS}


def _loaded(node: ast.AST) -> set[str]:
    """The names node loads, as a bare name or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def _defined(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines, dunders excluded."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")}


def unreached() -> list[str]:
    """The top-level functions, classes and variables of src/ltlqbe that pass
    none of the three checks, as module.name."""
    defs = []  # (module, name)
    loads = []  # (module, the names the statement defines, the names it loads)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owners = _defined(stmt)
            defs += [(path.stem, name) for name in sorted(owners)]
            loads.append((path.stem, owners, _loaded(stmt)))
    kept = set(ltlqbe.__all__) | _span_names()
    return [
        f"{module}.{name}"
        for module, name in defs
        if name not in kept
        and not any(name in names for m, owners, names in loads if m != module or name not in owners)
    ]


def unused_imports() -> list[str]:
    """The names that modules of src/ltlqbe and tests/ import but neither
    load, nor list in `__all__`, nor take as a conftest fixture, as
    file:name."""
    out = []
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        imported, fixtures = set(), set()
        for node in nodes:
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = {a.asname or a.name for a in node.names}
                imported |= names
                if node.module == "conftest":
                    fixtures |= names
        used = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        used |= fixtures & {n.arg for n in nodes if isinstance(n, ast.arg)}
        for node in nodes:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        out += [f"{path.relative_to(ROOT)}:{name}" for name in sorted(imported - used)]
    return out


def test_every_top_level_name_has_a_product_caller():
    assert unreached() == []


def test_every_imported_name_is_used():
    assert unused_imports() == []
