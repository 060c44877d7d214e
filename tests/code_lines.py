"""Count the code lines of the investigator, src/evmsleuth/*.py: lines that
hold a token other than a comment, with blank lines and module, class and
function docstrings left out. Prints, per file, its code lines next to its
file lines (as wc -l counts them), then their totals and the subtotal of
the ingest pair, explorer.py plus traces.py.

    python tests/code_lines.py [FILE ...]

Given files, it counts those instead.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}

# The files of trace and archive ingest, whose sum is tracked on its own.
INGEST = ("explorer.py", "traces.py")


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a Python source text."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(
        (Path(__file__).resolve().parents[1] / "src" / "evmsleuth").glob("*.py")
    )
    counts = {}
    print("  code    file")
    for path in paths:
        text = path.read_text()
        counts[path.name] = (code_lines(text), text.count("\n"))
        print("{:6d}  {:6d}  {}".format(*counts[path.name], path.name))
    print("{:6d}  {:6d}  total".format(*map(sum, zip(*counts.values()))))
    pair = [counts[name] for name in INGEST if name in counts]
    if len(pair) == len(INGEST):
        print("{:6d}  {:6d}  {}".format(*map(sum, zip(*pair)), " + ".join(INGEST)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
