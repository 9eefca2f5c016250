"""The rule of ``tools/code_lines.py``, whose count the code-size figures cite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# Eight code lines: the import, the class and both def lines, both lines of
# the string assigned to ``text``, and both returns.
SOURCE = '''"""A module docstring
over two lines."""

# A comment.
import os  # a code line with a trailing comment


class Shape:
    """A class docstring."""

    def area(self):
        """A function docstring
        over two lines.
        """
        text = """a string that is
        not a docstring"""
        return text


async def run():
    """An async function docstring."""

    return os.sep
'''


def test_docstrings_comments_and_blank_lines_are_not_counted():
    assert code_lines.code_lines(SOURCE) == 8
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
