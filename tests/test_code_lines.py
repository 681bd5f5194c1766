"""The code-line rule of tools/code_lines.py, on a sample that has each kind of line."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment alone


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside.
        """
        text = """a string that is
not a docstring"""
        return (text,
                math.pi
                )


def bare():
    return 1
'''


def test_counts_code_and_not_docstrings_comments_or_blanks():
    # import, class, def method, the two-line assignment, the return's
    # three lines, def bare and its return
    assert code_lines.code_lines(SAMPLE) == 10


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["10", "1", "11"]
    assert lines[-1].split()[1] == "total"
