"""Count the code lines of Python sources, leaving out docstrings, comments
and blank lines.

    python scripts/code_lines.py [DIR]

prints one ``count path`` line per ``*.py`` file directly under ``DIR``
(default ``src/chauffeur``) and a ``total`` line, in the layout of
``wc -l``.  A line counts when a token of a statement other than a lone
string starts, ends or continues on it; a statement that is only a string
literal (a docstring, or a string used as a comment) does not count.
Unlike ``wc -l``, the count does not move when a docstring or a comment is
edited.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    rows: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type != tokenize.NEWLINE:
            statement.append(tok)
            continue
        if not all(t.type == tokenize.STRING for t in statement):
            for t in statement:
                rows.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return len(rows)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    folder = Path(argv[0]) if argv else ROOT / "src" / "chauffeur"
    total = 0
    for path in sorted(folder.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:>6} {path}")
    print(f"{total:>6} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
