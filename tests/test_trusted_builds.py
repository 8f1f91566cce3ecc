"""Structures built without validation (``FinStructure(..., _checked=True)``)
come only from the package's own builders, each listed here with the reason
its output is valid; a new one fails until it is added.  Input read from
outside (the CLI, ``structure_from_dict``, ``FinStructure.build``) is always
validated."""

import ast
from pathlib import Path

import ramsey_forge
from ramsey_forge import catalog
from ramsey_forge.structures import FinStructure

ALLOWED = {
    "structures.restriction": "an induced substructure of a valid structure",
    "structures.reduct": "some relations of a valid structure",
    "catalog._complete_structures": "valid forced tuples plus valid slot "
                                    "options; linear orders validated",
    "diagrams._empty_structure": "no points and no tuples",
    "universes.rado": "symmetric BIT edges without loops",
    "universes.ordered_rado": "the BIT edges and the natural order",
    "universes.acyclic_universal": "BIT edges oriented upward",
    "universes.henson3": "symmetric greedy edges without loops",
    "universes.acyclic_triangle_free": "greedy edges oriented upward",
    "universes.rational_chain": "the order of distinct rationals and the "
                                "natural order",
    "universes.permutational_poset": "a suborder of the natural order, and "
                                     "the natural order",
}


def _is_trusted_build(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "FinStructure" and any(
        k.arg == "_checked" and not (isinstance(k.value, ast.Constant)
                                     and k.value.value is False)
        for k in node.keywords)


def _trusted_builders() -> set[str]:
    found = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{prefix}.{child.name}")
            else:
                if _is_trusted_build(child):
                    found.add(prefix)
                visit(child, prefix)

    for path in Path(ramsey_forge.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_every_trusted_build_is_allowed():
    builders = _trusted_builders()
    assert builders - set(ALLOWED) == set(), "unlisted trusted builds"
    assert set(ALLOWED) - builders == set(), "allowlist names no trusted build"


def test_invalid_trusted_build_is_caught(revalidate_trusted_builds):
    """The suite-wide fixture catches a trusted build that is invalid."""
    bad = FinStructure(catalog.GRAPH_SIG, 2, (frozenset({(0, 1)}),),
                       _checked=True)
    assert revalidate_trusted_builds == [
        (bad, "E: pair (0,1) has shape FORWARD, not valid for "
               "symmetric-irreflexive")]
    revalidate_trusted_builds.clear()  # caught: let the fixture pass
