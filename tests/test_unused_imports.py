"""Every name a ``src/`` module imports is used in that module.

Package ``__init__`` modules are skipped: their imports are re-exports.
A name counts as used when the module reads it anywhere, annotations
included; quoted annotations are parsed too.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [
                alias.asname or alias.name.split(".")[0] for alias in node.names
            ]
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    used = {
        node.id for t in trees for node in ast.walk(t)
        if isinstance(node, ast.Name)
    }
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import() -> None:
    source = (
        "from typing import Optional, Sequence\nimport numpy as np\n"
        "def f(x: 'Sequence[int]') -> None: ...\n"
    )
    assert unused_imports(source) == ["Optional", "np"]


def test_src_modules_use_their_imports() -> None:
    offenders = {
        str(path.relative_to(SRC)): unused_imports(path.read_text())
        for path in MODULES
    }
    assert {path: names for path, names in offenders.items() if names} == {}
