"""Count the code lines of a package: lines that hold a token other than
a comment, with the module, class and function docstrings left out.

    python tests/code_lines.py [DIR]

DIR defaults to ``src/bbplog``.  Prints one ``<module> <lines>`` line per
module, then ``total <lines>``.  Blank lines, comment-only lines and
docstrings are not counted, so the count moves only with the code.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines on which a code token starts, docstrings aside."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return len({tok.start[0] for tok in tokens if tok.type not in _NOT_CODE} - docstrings)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "bbplog"
    total = 0
    for path in sorted(package.glob("*.py")):
        lines = code_lines(path.read_text(encoding="utf-8"))
        total += lines
        print(path.stem, lines)
    print("total", total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
