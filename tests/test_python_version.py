"""Every module of the package parses at the oldest Python that
pyproject.toml's `requires-python` admits."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                  (ROOT / "pyproject.toml").read_text()).groups()))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "dcs").glob("*.py")),
                         ids=lambda path: path.name)
def test_module_parses_at_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
