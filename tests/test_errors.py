"""Every exception type in `eigenvanish.errors` is raised somewhere in the
package, or is a base of one that is: read from the source with `ast`, so a
type that nothing raises cannot stay exported unnoticed."""

import ast
from pathlib import Path

import eigenvanish
from eigenvanish import errors

PACKAGE = Path(eigenvanish.__file__).parent


def _name(node) -> str | None:
    """`X` for the expressions X, X(...), mod.X and mod.X(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def raised_names() -> set[str]:
    return {
        _name(node.exc)
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
    }


def error_bases() -> dict[str, list[str]]:
    """{class name: names of its bases} for each class in errors.py."""
    tree = ast.parse(Path(errors.__file__).read_text())
    return {
        node.name: [_name(base) for base in node.bases]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


def test_every_error_type_is_raised_or_a_base_of_one():
    bases = error_bases()
    assert bases["BadPrime"] == ["BadInput"]  # the scan sees the classes
    live = raised_names() & bases.keys()
    frontier = set(live)
    while frontier:  # a base of a live class is live
        frontier = {b for name in frontier for b in bases[name] if b in bases} - live
        live |= frontier
    assert sorted(bases.keys() - live) == []
