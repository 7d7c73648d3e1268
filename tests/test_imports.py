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
