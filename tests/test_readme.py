"""The README's python examples run against the current API."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_has_a_python_example():
    assert python_blocks()


@pytest.mark.parametrize("block", python_blocks())
def test_python_example_runs(block):
    exec(compile(block, str(README), "exec"), {})
