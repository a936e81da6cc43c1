"""The package's declared runtime dependencies and version against its modules."""

import ast
import re
import sys
from pathlib import Path

import pytest

import chaincp

PACKAGE = Path(chaincp.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
DEMOS = PACKAGE.parents[1] / "demos"


def imported_distributions(paths) -> set[str]:
    """Top-level names of every absolute import in ``paths``, outside the stdlib and chaincp."""
    names = set()
    for path in paths:
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
    assert imported_distributions(PACKAGE.glob("*.py")) == declared == {"mpmath"}
    # numpy serves the tests only; scipy is declared nowhere, so
    # nothing may rely on it
    test_extra = requirement_names(project["optional-dependencies"]["test"])
    assert "numpy" in test_extra and "scipy" not in test_extra | declared


def test_demos_need_only_the_standard_library_and_the_package():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    assert imported_distributions(demos) == set()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_version_is_read_from_the_package():
    import tomllib

    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    version = config["tool"]["setuptools"]["dynamic"]["version"]
    assert version == {"attr": "chaincp.__version__"}
    # setuptools reads the attribute without importing the package, which
    # needs a literal assignment in the package's own file
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    values = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and [getattr(target, "id", None) for target in node.targets] == ["__version__"]]
    assert values == [chaincp.__version__]
