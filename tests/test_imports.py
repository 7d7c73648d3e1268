import ast
import sys
import types
from pathlib import Path

import cluster_consensus

# numpy is the one declared runtime dependency (pyproject.toml); any other
# third-party import would pass here wherever it happens to be installed and
# break a clean install.
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "cluster_consensus"}


def test_package_imports_only_stdlib_and_numpy():
    package = Path(cluster_consensus.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not foreign, foreign


def test_export_list_names_every_public_attribute():
    """__all__ and the package namespace name the same things, so a name
    removed from one but not the other fails here."""
    public = {name for name, value in vars(cluster_consensus).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(cluster_consensus.__all__) == sorted(public)


# Each package module imports only modules earlier in this order, so no
# two modules import each other.
LAYERS = ("errors", "topology", "engine", "analysis", "scenario", "experiments",
          "__init__", "cli", "__main__")


def imported_modules(node) -> list:
    """The package modules that an import statement imports; a name taken
    from the package itself (`from . import __version__`) counts as an
    import of __init__."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names
                  if alias.name.split(".")[0] == "cluster_consensus"]
    elif node.level == 0:
        if node.module.split(".")[0] != "cluster_consensus":
            return []
        dotted = [node.module]
    elif node.module:
        dotted = ["cluster_consensus." + node.module]
    else:
        return [alias.name if alias.name in LAYERS else "__init__"
                for alias in node.names]
    return [(name.split(".") + ["__init__"])[1] for name in dotted]


def test_modules_import_only_earlier_layers():
    package = Path(cluster_consensus.__file__).parent
    assert sorted(path.stem for path in package.glob("*.py")) == sorted(LAYERS)
    wrong = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        rank = LAYERS.index(path.stem)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if node not in tree.body:
                wrong.append(f"{path.name}:{node.lineno}: import inside a block")
            wrong += [f"{path.name}:{node.lineno}: imports {name}"
                      for name in imported_modules(node)
                      if LAYERS.index(name) >= rank]
    assert not wrong, wrong


def unused_imports(source: str) -> list:
    """(line, name) of every name that a module's imports bind and that the
    module neither reads nor lists in __all__."""
    tree = ast.parse(source)
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read | exported]


def test_unused_imports_finds_a_name_never_read():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from .errors import ShapeError, DomainError as Bad\n"
              "__all__ = ['Bad']\nos.sep\n")
    assert unused_imports(source) == [(3, "ShapeError")]


def test_package_modules_read_every_import():
    """A change that deletes the last use of an imported name deletes the
    import too, in the package, the tests and the demos."""
    root = Path(__file__).parent.parent
    paths = [*Path(cluster_consensus.__file__).parent.glob("*.py"),
             *root.glob("tests/*.py"), *root.glob("demos/*.py")]
    assert len(paths) > len(LAYERS)
    unused = [f"{path.parent.name}/{path.name}:{line}: {name}" for path in sorted(paths)
              for line, name in unused_imports(path.read_text())]
    assert not unused, unused
