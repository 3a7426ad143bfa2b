"""setup.py (the legacy install shim) must agree with pyproject.toml."""

import ast
from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def setup_kwargs():
    """The literal keyword arguments of setup.py's ``setup()`` call."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setup"
        ):
            return {
                kw.arg: ast.literal_eval(kw.value)
                for kw in node.keywords
                if kw.arg in ("name", "version", "install_requires",
                              "python_requires")
            }
    raise AssertionError("setup.py has no setup() call")


def test_setup_shim_matches_pyproject():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    shim = setup_kwargs()
    assert shim["name"] == project["name"]
    assert shim["version"] == project["version"]
    assert shim["install_requires"] == project["dependencies"]
    assert shim["python_requires"] == project["requires-python"]
    assert repro.__version__ == project["version"]
