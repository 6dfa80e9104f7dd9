"""helpers.code_lines counts the lines of a source file that hold code."""

from __future__ import annotations

from helpers import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


# a comment alone does not
class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Function docstring,
        over two lines."""
        text = """not a docstring:
        a string assigned to a name"""
        return (self.size
                * len(text))

    async def later(self):
        \'\'\'Async function docstring.\'\'\'
        "a string statement after the docstring counts"
'''


def test_code_lines_counts_code_and_strings_but_not_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    # import, class, size, def area, the two lines of text, the two lines
    # of the return, async def and the string statement after its docstring
    assert code_lines(path) == 10
