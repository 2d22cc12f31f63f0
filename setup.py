"""Install metadata of the ``repro`` package.

The package lives under ``src/``.  Everything is declared here, in plain
``setup()`` arguments, so ``pip install -e .`` and
``python setup.py --name --version`` work offline: a ``pyproject.toml``
with a ``[build-system]`` table would make pip fetch build dependencies.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
# Read, not imported: importing the package needs numpy, which an
# installer may not have yet.
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Closed-loop simulation of equal impact across repeated interactions "
        "with an AI system (credit-scoring case study)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
    # markov.ergodicity imports networkx where it builds a graph.
    extras_require={"graphs": ["networkx"]},
)
