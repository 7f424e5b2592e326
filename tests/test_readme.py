"""The README's python examples run, and import only the public API."""

import ast
import re
from pathlib import Path

import pytest

import telespline

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs_and_imports_only_public_names(source):
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "telespline"
        for alias in node.names
    ]
    assert set(imported) <= set(telespline.__all__)
    exec(compile(source, str(README), "exec"), {})
