"""Count the code lines of the lefkit package, per module and in total.

A code line is a line holding a token, a multi-line string counting on
every line it spans, less the lines of module, class and function
docstrings.  Comments and blank lines hold no token.  So a statement split
over two lines counts two, and reformatting alone moves the count only by
the lines it joins or splits.

Run from anywhere: python3 tools/code_lines.py [directory]; the directory
defaults to the package source, src/lefkit.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# tokens that are layout, not code
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(directory: Path) -> dict[str, int]:
    """Code lines of each .py file directly in `directory`, by file name, sorted."""
    return {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*.py"))
    }


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else ROOT / "src" / "lefkit"
    counts = count(directory)
    for name, lines in counts.items():
        print(f"{name:<16} {lines:>6,}")
    print(f"{'total':<16} {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
