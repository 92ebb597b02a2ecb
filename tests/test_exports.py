"""The package's public surface: `wegner2p.__all__` matches what `__init__` imports."""

import ast
from pathlib import Path

import wegner2p


def imported_names() -> list[str]:
    """Every name `wegner2p/__init__.py` imports from its own modules, in order."""
    tree = ast.parse(Path(wegner2p.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_all_lists_each_imported_name_once():
    assert len(set(wegner2p.__all__)) == len(wegner2p.__all__)
    assert sorted(wegner2p.__all__) == sorted(imported_names())


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from wegner2p import *", namespace)
    assert all(namespace[name] is getattr(wegner2p, name) for name in wegner2p.__all__)
