"""Every public name of the package has a caller in the program."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_is_loaded_by_the_program():
    """Each name in a src/ecov module's ``__all__`` is loaded somewhere in
    src/ecov outside ``__init__.py``, or in perfbench/.  Loaded means an
    ``ast.Name`` in Load context or an ``ast.Attribute``; tests do not count.

    Attributes match by name alone, so a dead function is missed when some
    object has an attribute of the same name: a deleted ``is_p_group``
    would pass by ``StructureReport.is_p_group``.
    """
    modules = sorted(p for p in (ROOT / "src" / "ecov").glob("*.py") if p.name != "__init__.py")
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in modules}
    trees.update((path, ast.parse(path.read_text(encoding="utf-8"))) for path in (ROOT / "perfbench").glob("*.py"))
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    unused = []
    for path in modules:
        for node in trees[path].body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                unused += [f"{path.stem}.{name}" for name in ast.literal_eval(node.value) if name not in loaded]
    assert unused == []
