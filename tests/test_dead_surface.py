"""Every public module-level function or class in `src/phasespace` has a
reader: a use elsewhere in `src/`, an export in `phasespace.__all__`, or a
name in the benchmark's span list (`bench/spans.py`).  A helper that only
tests call belongs in `tests/`."""

import ast
from pathlib import Path

import phasespace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "phasespace"
SPANS = ROOT / "bench" / "spans.py"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_public_definitions_have_a_reader():
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    # bare names and attribute names read anywhere in src/; a def or an
    # import alias is not a read
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    traced = {
        node.value
        for node in ast.walk(parse(SPANS))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    known = read | traced | set(phasespace.__all__)
    unread = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in known
    ]
    assert unread == []
