"""helpers.code_lines counts the lines of a source file that hold code;
the package's counts are reported."""

from __future__ import annotations

from pathlib import Path

from helpers import code_lines, print_report

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "ace"

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


def test_each_package_file_has_no_more_code_lines_than_lines():
    sources = sorted(SRC.glob("*.py"))
    # the physical lines, as wc -l counts them, and the code lines
    sizes = {p: p.read_bytes().count(b"\n") for p in sources}
    code = {p: code_lines(p) for p in sources}
    for title, counts in (("Code size", sizes), ("Code lines", code)):
        listed = ", ".join(f"{p.relative_to(REPO)} {n}" for p, n in counts.items())
        print_report(f"{title}: {listed}, total {sum(counts.values())}")
    assert sources
    assert all(0 < code[p] <= sizes[p] for p in sources)
