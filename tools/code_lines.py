"""Count the code lines of each module of a Python package.

A code line is a line that holds a token other than a comment, NL, NEWLINE,
INDENT, DEDENT or ENDMARKER and lies outside every module, class and
function docstring.  A token that spans lines (a triple-quoted string that
is not a docstring) makes each of its lines a code line.

Usage: ``python tools/code_lines.py [PACKAGE_DIR]``, by default the
``src/passiveqkd`` next to this script.  Prints one ``lines  module`` row
per module, sorted by size, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# ENCODING and ENDMARKER sit on no line of the file
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in the Python source file ``path``."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, str(path))))


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "passiveqkd"
    root = Path(argv[1]) if len(argv) > 1 else default
    counts = {str(p.relative_to(root)): code_lines(p) for p in sorted(root.rglob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{n:6,d}  {name}")
    print(f"{sum(counts.values()):6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
