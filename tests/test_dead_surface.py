"""Every module-level definition in `src/phasespace` has a reader.

A public function or class needs a use elsewhere in `src/`, an export in
`phasespace.__all__`, or a name in the benchmark's span list
(`bench/spans.py`); a helper that only tests call belongs in `tests/`.
A private (`_name`) function and a module constant, public or private,
need the same, so a consolidation cannot leave a dead helper or knob
behind.  Dunders (`__all__`, `__version__`) are exempt."""

import ast
from pathlib import Path

import phasespace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "phasespace"
SPANS = ROOT / "bench" / "spans.py"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def module_definitions(tree):
    """(name, kind) of each function, class and constant bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, type(node).__name__
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, "constant"


def unread_definitions():
    """(module, name, kind) of each module-level definition nothing reads."""
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    # bare names and attribute names loaded anywhere in src/; a def, an
    # assignment target or an import alias is not a read
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
    }
    traced = {
        node.value
        for node in ast.walk(parse(SPANS))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    known = read | traced | set(phasespace.__all__)
    return [
        (module, name, kind)
        for module, tree in trees.items()
        for name, kind in module_definitions(tree)
        if name not in known and not (name.startswith("__") and name.endswith("__"))
    ]


def test_public_definitions_have_a_reader():
    unread = [
        f"{module}:{name}"
        for module, name, kind in unread_definitions()
        if kind != "constant" and not name.startswith("_")
    ]
    assert unread == []


def test_private_helpers_and_constants_have_a_reader():
    unread = [
        f"{module}:{name}"
        for module, name, kind in unread_definitions()
        if kind == "constant" or name.startswith("_")
    ]
    assert unread == []
