"""Every public name and every top-level definition of the package has a caller in the program."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "ecov").glob("*.py") if p.name != "__init__.py")
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES + sorted((ROOT / "perfbench").glob("*.py"))}


def loads(tree) -> Counter:
    """How often each name is loaded in tree: an ``ast.Name`` in Load context or an ``ast.Attribute``."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    )


LOADED = sum((loads(tree) for tree in TREES.values()), Counter())


def test_every_exported_name_is_loaded_by_the_program():
    """Each name in a src/ecov module's ``__all__`` is loaded somewhere in
    src/ecov outside ``__init__.py``, or in perfbench/; tests do not count.

    Attributes match by name alone, so a dead function is missed when some
    object has an attribute of the same name: a deleted ``is_p_group``
    would pass by ``StructureReport.is_p_group``.
    """
    unused = []
    for path in MODULES:
        for node in TREES[path].body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                unused += [f"{path.stem}.{name}" for name in ast.literal_eval(node.value) if not LOADED[name]]
    assert unused == []


def test_every_top_level_definition_is_loaded_by_the_program():
    """Each top-level ``def`` and ``class`` in src/ecov, private ones included,
    is loaded somewhere in src/ecov or perfbench/ outside its own body, in the
    sense of the test above.  A helper that only tests call fails here.
    """
    unused = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in TREES[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and LOADED[node.name] == loads(node)[node.name]
    ]
    assert unused == []
