"""Every imported name in the library modules, tests and demos is used, and
the library's imports go one way, down its layers."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "finmod").glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(
    [p for p in (ROOT / "src" / "finmod").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_sees_each_kind_of_import():
    source = "import os.path\nimport a as b\nfrom c import d, e as f\nd(f)\n"
    assert unused_imports(source) == ["os (line 1)", "b (line 2)"]


def test_sources_found():
    assert len(SOURCES) >= 20


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# finmod's layers, bottom up, as ``finmod/__init__.py`` lists them: each
# module imports finmod names only from the modules before it.
LAYERS = ("config", "intlat", "algebra", "homspace", "lattice", "product", "radical",
          "oracle", "harness", "cli")


def finmod_imports(source: str) -> list[tuple[str, int, bool]]:
    """(finmod module imported, line, whether inside a function) for each
    relative or ``finmod.`` import in a library module's source."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom):
                if child.level:
                    targets = [child.module] if child.module else [a.name for a in child.names]
                elif (child.module or "").startswith("finmod."):
                    targets = [child.module.split(".")[1]]
                else:
                    targets = []
                found.extend((t.split(".")[0], child.lineno, in_function) for t in targets)
            elif isinstance(child, ast.Import):
                found.extend((a.name.split(".")[1], child.lineno, in_function)
                             for a in child.names if a.name.startswith("finmod."))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(source), False)
    return found


def test_layer_scan_sees_each_kind_of_import():
    source = ("from .a import x\nfrom . import b\nimport finmod.c\nfrom finmod.d import y\n"
              "import os\nclass K:\n    def f(self):\n        from .e import z\n")
    assert finmod_imports(source) == [("a", 1, False), ("b", 2, False), ("c", 3, False),
                                      ("d", 4, False), ("e", 8, True)]


def test_layers_name_every_library_module():
    assert sorted(p.stem for p in LIBRARY) == sorted(LAYERS)


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_finmod_import_inside_a_function(path):
    assert [line for _, line, inside in finmod_imports(path.read_text()) if inside] == []


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_imports_follow_the_layers(path):
    rank = LAYERS.index(path.stem)
    assert [(m, line) for m, line, _ in finmod_imports(path.read_text())
            if LAYERS.index(m) >= rank] == []
