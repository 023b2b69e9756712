"""Every top-level name in the library has a product caller.

A function or class defined at the top of a `src/ltlqbe` module must be
loaded somewhere in the library outside its own body, be exported in
`ltlqbe.__all__`, or be a name the benchmark's spans wrap
(`perfbench/spans.py` `TARGETS`).  References that only tests use live
under `tests/`.
"""

import ast
import importlib.util
from pathlib import Path

import ltlqbe

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ltlqbe"
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


def unreached() -> list[str]:
    """The top-level functions and classes of src/ltlqbe that pass none of
    the three checks, as module.name."""
    defs = []  # (module, name)
    loads = []  # (module, the top-level def the loads sit in or None, names)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                defs.append((path.stem, owner))
            loads.append((path.stem, owner, _loaded(stmt)))
    kept = set(ltlqbe.__all__) | _span_names()
    return [
        f"{module}.{name}"
        for module, name in defs
        if name not in kept
        and not any(name in names for m, owner, names in loads if (m, owner) != (module, name))
    ]


def test_every_top_level_name_has_a_product_caller():
    assert unreached() == []
