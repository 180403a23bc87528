"""Guard: every function, class and method defined in ``src/`` is used.

A definition counts as used when its name is referenced anywhere else:
as a name, attribute, import or string word in ``src/`` (one ``ast`` pass,
which never counts a ``def``/``class`` line as a use of itself), or as a
word in ``tests/``, ``benchmarks/``, ``examples/``, ``perfbench/`` or the
documentation under ``docs/``.  The match is by name only, so one use
keeps every definition of that name alive; the guard catches code that
nothing names at all.  Dunder methods are called by Python itself and are
skipped.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan_src() -> tuple[list[tuple[str, str]], Counter]:
    """(definitions as ``(name, where)``, reference counts) of ``src/``."""
    definitions: list[tuple[str, str]] = []
    references: Counter = Counter()
    for path in sorted((ROOT / "src").rglob("*.py")):
        where = path.relative_to(ROOT)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, _DEFS):
                definitions.append((node.name, f"{where}:{node.lineno}"))
            if isinstance(node, ast.ClassDef):
                definitions.extend(
                    (item.name, f"{where}:{item.lineno} ({node.name})")
                    for item in node.body
                    if isinstance(item, _DEFS)
                )
        for node in ast.walk(tree):
            kind = type(node)
            if kind is ast.Name:
                references[node.id] += 1
            elif kind is ast.Attribute:
                references[node.attr] += 1
            elif kind is ast.alias:
                references[node.name.rpartition(".")[2]] += 1
            elif kind is ast.Constant and type(node.value) is str:
                references.update(_WORD.findall(node.value))
    return definitions, references


def _words_outside_src() -> set[str]:
    paths = [
        path
        for top in ("tests", "benchmarks", "examples", "perfbench")
        for path in (ROOT / top).rglob("*.py")
    ]
    paths += (ROOT / "docs").rglob("*.md")
    words: set[str] = set()
    for path in paths:
        words.update(_WORD.findall(path.read_text(encoding="utf-8")))
    return words


def test_every_src_definition_is_referenced():
    definitions, references = _scan_src()
    words = _words_outside_src()
    unreferenced = [
        f"{where}: {name}"
        for name, where in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and not references[name]
        and name not in words
    ]
    assert not unreferenced, "definitions referenced nowhere:\n" + "\n".join(
        unreferenced
    )
