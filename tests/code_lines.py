"""Print the code lines of each ``src/siggraphgan`` module and their total.

A code line is a physical line that holds part of a Python token other
than a comment, and that is not part of a docstring. Docstrings (the
leading string of a module, class or function) are found with `ast`;
comments and blank lines with `tokenize`. A statement or string that
spans several lines counts every line it spans.

    python tests/code_lines.py                # this checkout's package
    python tests/code_lines.py other/src/siggraphgan

pytest does not collect this file.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "siggraphgan"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(package=PACKAGE) -> int:
    total = 0
    for path in sorted(Path(package).glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:12s} {count:5d}")
    print(f"{'total':12s} {total:5d}")
    return total


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else PACKAGE)
