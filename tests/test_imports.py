"""pdflow needs numpy alone: scipy is a test dependency (pyproject.toml's
``test`` extra), so no module of the package may import it.  The shared
input checks live in ``sets`` and ``spectral``, which the other modules
import, so those two import no module above them."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pdflow"


def imported_modules(path: Path):
    """Every absolute module name an import statement of ``path`` names; a
    relative import of the package's own modules is named ``pdflow.<module>``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif isinstance(node, ast.ImportFrom):  # from .module import ... / from . import module
            modules = [node.module] if node.module else [alias.name for alias in node.names]
            yield from (f"pdflow.{module}" for module in modules)


def package_imports(name: str) -> set:
    """The pdflow modules that module ``name`` of the package imports."""
    return {m for m in imported_modules(PACKAGE / f"{name}.py") if m.split(".")[0] == "pdflow"}


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


def test_shared_checks_import_no_module_above_them():
    # sets holds _integer, _positive, _check_finite and _frozen, and spectral
    # the symmetric PSD check; an import upward would form a cycle
    assert package_imports("sets") == set()
    assert package_imports("spectral") <= {"pdflow.sets"}
    # the walk sees relative imports: cli imports connectivity as a name
    assert {"pdflow.connectivity", "pdflow.flow"} <= package_imports("cli")
