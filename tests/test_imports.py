"""pdflow needs numpy alone: scipy is a test dependency (pyproject.toml's
``test`` extra), so no module of the package may import it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pdflow"


def imported_modules(path: Path):
    """Every absolute module name an import statement of ``path`` names."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_does_not_import_scipy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name} imports {name}"
        for path in sources
        for name in imported_modules(path)
        if name.split(".")[0] == "scipy"
    ]
    assert not offenders, offenders
