"""Compatibility shim for environments without PEP-517 wheel support.

Modern installs use pyproject.toml; this lets ``python setup.py develop``
(or legacy ``pip install -e .``) work on older toolchains.  The version
and dependencies repeat pyproject.toml's; ``tests/test_packaging.py``
keeps the two in step.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.5.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "networkx>=3.0"],
)
