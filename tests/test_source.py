"""Checks on the package's source text."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nestflow"
# Imported only for the side effect of registering their flow kinds.
UNUSED_ON_PURPOSE = {"__init__.py": ["ccflows", "compose", "llm", "sandbox"]}


def unused_imports(path: Path) -> list[str]:
    """The names that the module's top-level imports bind and it never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == UNUSED_ON_PURPOSE.get(path.name, [])
