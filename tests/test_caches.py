"""Module-level caches live for the whole process, so each one is listed
here with the reason it is kept; a new one fails until it is added."""

import ast
from pathlib import Path

import ramsey_forge

ALLOWED = {
    "structures.enumerate_embeddings": "perfbench/layers.py reads cache_info()",
    "metric.blocks": "perfbench/layers.py reads cache_info()",
}


def _is_cache(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = (decorator.attr if isinstance(decorator, ast.Attribute)
            else getattr(decorator, "id", None))
    return name in ("lru_cache", "cache")


def _cached_functions() -> set[str]:
    found = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if (not isinstance(child, ast.ClassDef)
                        and any(map(_is_cache, child.decorator_list))):
                    found.add(name)
                visit(child, name)

    for path in Path(ramsey_forge.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_every_cache_is_allowed():
    cached = _cached_functions()
    assert cached - set(ALLOWED) == set(), "unlisted lru_cache functions"
    assert set(ALLOWED) - cached == set(), "allowlist names a missing cache"
