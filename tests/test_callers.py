"""Every top-level name in ``src/sumnorm`` has a use in the package: its
module's ``__all__`` exports it, or code in ``src/sumnorm`` outside its
own definition loads it.  A helper that only the tests call fails here;
it belongs under ``tests/``, as ``tests/matrices.py`` does."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import sumnorm

_TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
          for path in sorted(Path(sumnorm.__file__).parent.glob("*.py"))}


def _loads(node):
    """The names that ``node`` reads: bare, as an attribute, or imported
    from another module."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _bound(node):
    """The names that a top-level statement defines or assigns."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)]


_EVERYWHERE = Counter(name for tree in _TREES.values()
                      for name in _loads(tree))


@pytest.mark.parametrize("module", list(_TREES))
def test_every_top_level_name_has_a_use_in_the_package(module):
    tree = _TREES[module]
    exported = set()
    for node in tree.body:
        if "__all__" in _bound(node):
            exported = set(ast.literal_eval(node.value))
    unused = [name for node in tree.body
              for name in _bound(node)
              if not (name.startswith("__") and name.endswith("__"))
              and name not in exported
              and _EVERYWHERE[name] <= Counter(_loads(node))[name]]
    assert not unused, f"{module}: no use in src/sumnorm of {unused}"
