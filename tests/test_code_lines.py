"""``scripts/code_lines.py``: lines of code without docstrings, comments and
blank lines."""

import importlib.util
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = textwrap.dedent(
    '''\
    """Module docstring
    over two lines."""

    import math  # a comment

    # a comment line


    def f(x):
        """One-line docstring."""
        "a string statement" "implicitly joined"
        s = """a multi-line
    string in code"""
        return math.sqrt(
            x
        )
    '''
)


def test_counts_code_only():
    # import, def, the two-line assignment and the three-line return.
    assert load_script().code_lines(SOURCE) == 1 + 1 + 2 + 3


def test_docstring_and_comment_edits_leave_the_count():
    script = load_script()
    edited = SOURCE.replace('"""One-line docstring."""', '"""A docstring\n    now on\n    three lines."""')
    edited = edited.replace("# a comment line", "# a comment line\n# and another")
    assert edited != SOURCE
    assert script.code_lines(edited) == script.code_lines(SOURCE)


def test_prints_per_file_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = 2\n")
    assert load_script().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     7 {tmp_path / 'a.py'}",
        f"     2 {tmp_path / 'b.py'}",
        "     9 total",
    ]
