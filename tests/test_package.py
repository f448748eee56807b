"""The package holds no dead code: every top-level name of a module is used by
the program, its demos or its benchmark. It runs on numpy alone: every module
imports only the standard library, numpy and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "climbdetect").glob("*.py") if p.name != "__init__.py")


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
    """The names a module reads of its own in ``tree``, outside ``skip``."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    return {node.id for node in ast.walk(tree) if id(node) not in inside
            and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _uses_of(tree: ast.AST, module: str) -> set[str]:
    """The names read in ``tree`` of the module named ``module``: imported from it,
    or read as its attribute (``module.name``, ``package.module.name``)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == module:
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and (
                isinstance(node.value, ast.Name) and node.value.id == module
                or isinstance(node.value, ast.Attribute) and node.value.attr == module):
            used.add(node.attr)
    return used


_TREES = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
          for directory in ("src", "demos", "bench")
          for path in sorted((ROOT / directory).rglob("*.py"))}


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_every_top_level_name_is_used(module):
    # another file uses a name only through the module: an attribute of the
    # same name on another object, such as the field `timeline.limb_substates`,
    # is no use of a function of that name
    tree = _TREES[module]
    others = set().union(*(_uses_of(t, module.stem) for path, t in _TREES.items()
                           if path != module))
    unused = [name for name, node in _definitions(tree).items()
              if name not in others | _uses(tree, skip=node)]
    assert unused == [], f"{module.name}: used nowhere in src/, demos/ or bench/"


@pytest.mark.parametrize("module", sorted((ROOT / "src" / "climbdetect").glob("*.py")),
                         ids=lambda path: path.stem)
def test_imports_only_the_standard_library_and_numpy(module):
    # pyproject.toml lists numpy as the one runtime dependency
    imported = set()
    for node in ast.walk(_TREES[module]):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    allowed = sys.stdlib_module_names | {"numpy", "climbdetect"}
    outside = sorted(name for name in imported if name.partition(".")[0] not in allowed)
    assert outside == [], f"{module.name} imports {outside}"


def test_only_the_cli_reads_another_modules_defaults():
    # a default stands in for a value the user did not give, so the command
    # line, which shows it in --help, is the one place to apply it; a module
    # that read one would stand it in for a value its input lacks
    cli = ROOT / "src" / "climbdetect" / "cli.py"
    read = {f"{path.relative_to(ROOT)}: {module.stem}.{name}"
            for path, tree in _TREES.items() if path != cli
            for module in MODULES if module != path
            for name in _uses_of(tree, module.stem) if name.startswith("DEFAULT_")}
    assert sorted(read) == []
