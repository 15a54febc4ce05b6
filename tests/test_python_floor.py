"""The package parses at the Python version that pyproject.toml declares.

``requires-python`` names the oldest interpreter the package supports;
``ast.parse`` with that ``feature_version`` rejects syntax from later
versions (``except*``, PEP 695 type parameters), so newer syntax fails
here on any newer interpreter.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

import isolation_lab

# tomllib is in the standard library from 3.11; on 3.10, the floor itself,
# the interpreter already parses every module at that version on import
tomllib = pytest.importorskip("tomllib")

PACKAGE = pathlib.Path(isolation_lab.__file__).parent
PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"


def _declared_floor() -> tuple[int, int]:
    spec = tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"]
    match = re.fullmatch(r">=\s*3\.(\d+)", spec.strip())
    assert match, f"requires-python {spec!r} is not of the form >=3.N"
    return 3, int(match.group(1))


def test_every_module_parses_at_the_floor():
    floor = _declared_floor()
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "def first[T](items: list[T]) -> T:\n    return items[0]\n",
], ids=["except-star", "pep-695"])
def test_newer_syntax_is_rejected_at_the_floor(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=_declared_floor())
