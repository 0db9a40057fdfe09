"""``scripts/code_lines.py`` on a small file: which lines hold code."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE = '''\
"""A module docstring
over two lines."""

import os  # a comment after code counts


# a comment alone does not
class A:
    """A class docstring."""

    def f(self, x):
        """A function
        docstring."""
        total = (x
                 + 1)
        return total


def g(): """A docstring after code on its line."""


TEXT = """a string literal that
is no docstring"""
"""An expression statement that is no docstring either."""
'''
# the lines that hold code: import, class, def f, the two lines of the sum,
# return, def g, the two lines of TEXT and the last literal
CODE = 10


def test_it_counts_code_lines_and_skips_blanks_comments_and_docstrings(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SOURCE)
    b.write_text("x = 1\n")
    out = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "code_lines.py"),
                          str(a), str(b)], capture_output=True, text=True, timeout=60, check=True)
    counts = [line.split() for line in out.stdout.splitlines()]
    assert [int(c) for c, _ in counts] == [CODE, 1, CODE + 1]
    assert [name for _, name in counts][-1] == "total"


def test_without_arguments_it_counts_the_package():
    out = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "code_lines.py")],
                         capture_output=True, text=True, timeout=60, check=True, cwd=ROOT)
    names = [line.split()[1] for line in out.stdout.splitlines()]
    package = sorted(n for n in os.listdir(os.path.join(ROOT, "src", "dqopt")) if n.endswith(".py"))
    assert names == [os.path.join("src", "dqopt", n) for n in package] + ["total"]
