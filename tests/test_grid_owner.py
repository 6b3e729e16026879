"""`grid.py` owns the grid defaults: the default box is built only there
(`suggest_grid`), and every seminorm band defaults to `DEFAULT_BAND` in the
signature itself, so no caller resolves a `None` of its own."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "phasespace"
DEFAULTS = {"DEFAULT_N", "DEFAULT_L"}


def trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_in(node):
    """Bare and attribute names read anywhere inside node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_only_grid_module_builds_a_default_box():
    found = []
    for module, tree in trees():
        if module == "grid.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or "Grid" not in {
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            }:
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            if any(name in DEFAULTS for value in values for name in names_in(value)):
                found.append(f"{module}:{node.lineno}")
    assert found == []


def test_no_band_defaults_to_none():
    found = []
    for module, tree in trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):],
                             args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            found += [
                f"{module}:{arg.lineno}"
                for arg, default in pairs
                if arg.arg == "band"
                and isinstance(default, ast.Constant) and default.value is None
            ]
    assert found == []
