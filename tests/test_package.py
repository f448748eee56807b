"""The package holds no dead code: every top-level name of a module is used by
the program, its demos or its benchmark."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "climbdetect").glob("*.py") if p.name != "__init__.py")
# Names that only the tests use, each kept for what it checks
TEST_ONLY = {
    "chi_square_gof": "the goodness-of-fit test of acceptance criterion 10",
    "filter_update": "one filter step, for criterion 9 and the filter oracles",
    "read_detection_csv": "the reader of `detect`'s output, for the round-trip and fuzz tests",
}


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Each top-level name a module defines, by def, class or assignment, and its node."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node
    return names


def _uses(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names read in ``tree`` as a name, an attribute or an import, outside ``skip``."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    used = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


_TREES = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
          for directory in ("src", "demos", "bench")
          for path in sorted((ROOT / directory).rglob("*.py"))}


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_every_top_level_name_is_used(module):
    tree = _TREES[module]
    others = set().union(*(_uses(t) for path, t in _TREES.items() if path != module))
    unused = [name for name, node in _definitions(tree).items()
              if name not in TEST_ONLY and name not in others | _uses(tree, skip=node)]
    assert unused == [], f"{module.name}: used nowhere in src/, demos/ or bench/"


def test_every_test_only_name_exists():
    defined = set().union(*(_definitions(_TREES[path]) for path in MODULES))
    assert set(TEST_ONLY) <= defined
