"""Setuptools shim for ``pip install -e .``; the version is ``repro.__version__``."""
import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text()

setup(
    name="repro",
    version=re.search(r'^__version__ = "([^"]+)"', _INIT, re.M).group(1),
    description=(
        "LEGO: a layout expression language for code generation of "
        "hierarchical mapping (reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
