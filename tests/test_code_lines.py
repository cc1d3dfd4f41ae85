"""``tools/code_lines.py`` counts what the simplicity figures quote: lines of code, not
docstrings, comments or blank lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
on two lines."""

import os  # a trailing comment keeps its line


def f():
    """A one-line docstring."""
    # a comment line
    text = """a string that
is no docstring"""
    return text
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # import, def, the two lines of the assigned string, and return
    assert code_lines.code_lines(SNIPPET) == 5
