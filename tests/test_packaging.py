"""The package's declared runtime dependencies against what its modules import."""

import ast
import re
import sys
from pathlib import Path

import pytest

import chaincp

PACKAGE = Path(chaincp.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def imported_distributions() -> set[str]:
    """Top-level names of every absolute import in ``chaincp/*.py``, outside the stdlib."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"chaincp"}


def requirement_names(requirements) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_declared_dependencies_are_what_the_package_imports():
    import tomllib

    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    declared = requirement_names(project["dependencies"])
    assert imported_distributions() == declared == {"mpmath"}
    # numpy serves the tests and demos only; scipy is declared nowhere, so
    # nothing may rely on it
    test_extra = requirement_names(project["optional-dependencies"]["test"])
    assert "numpy" in test_extra and "scipy" not in test_extra | declared
