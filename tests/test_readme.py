"""README's Python API block runs against the package it documents."""

import re
from pathlib import Path

import diffops

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_block_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)
    assert namespace["p4"] == namespace["res"].P  # (Q^4)_+ == P_4


def test_every_export_resolves():
    missing = [name for name in diffops.__all__ if not hasattr(diffops, name)]
    assert missing == []
