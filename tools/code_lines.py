"""Print the code lines of each module of src/dombcheck, then their total,
then the bytes of those sources:

    python3 tools/code_lines.py

A line counts when it holds a token of code; blank lines, comment lines
and docstrings (the string that opens a module, class or function body)
do not.  A string that spans lines and is not a docstring counts on every
line it spans.  The last line, ``bytes N``, is the size of the sources,
docstrings and comments included: what an import compiles where no
bytecode is cached.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dombcheck"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def code_lines(src: Path = SRC) -> dict[str, int]:
    """Module file name -> code lines, for every module under ``src``."""
    return {path.name: count_code_lines(path.read_text()) for path in sorted(src.glob("*.py"))}


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit("usage: python3 tools/code_lines.py")
    counts = code_lines()
    for name, n in counts.items():
        print(f"{name} {n}")
    print(f"total {sum(counts.values())}")
    print(f"bytes {sum(path.stat().st_size for path in SRC.glob('*.py'))}")
