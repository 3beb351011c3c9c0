"""Count the lines of a Python source tree: every line, and the code lines.

A code line holds a Python token outside comments and docstrings; a string token
spanning several lines makes each of them a code line. A docstring is the string
that opens a module, a class or a function body. Standard library only.

    python tools/src_lines.py [path ...]   # default: src
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source text."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(paths: list[str]) -> None:
    files = sorted(f for p in paths or ["src"]
                   for f in ([Path(p)] if Path(p).is_file() else Path(p).rglob("*.py")))
    lines = code = 0
    for f in files:
        n, c = count(f.read_text(encoding="utf-8"))
        print(f"{n:6d} {c:6d}  {f}")
        lines, code = lines + n, code + c
    print(f"{lines:6d} {code:6d}  total (lines, code lines)")


if __name__ == "__main__":
    main(sys.argv[1:])
