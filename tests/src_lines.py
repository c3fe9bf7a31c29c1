"""Print the raw and code line counts of each ``src/qrate`` module and in total.

Code lines are the non-blank lines that are neither comments nor module,
class or function docstrings; they are the count the ROADMAP design aim
tracks.  Run from the repository root:

    python tests/src_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qrate"
_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER)


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
    """(raw lines, code lines) of one module's source."""
    # Every line a token other than a comment or a line break covers; a
    # multi-line string covers all of its lines.
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main() -> None:
    total_raw = total_code = 0
    print(f"{'module':<16}{'raw':>7}{'code':>7}")
    for path in sorted(SRC.glob("*.py")):
        raw, code = count(path.read_text(encoding="utf-8"))
        total_raw += raw
        total_code += code
        print(f"{path.name:<16}{raw:>7}{code:>7}")
    print(f"{'total':<16}{total_raw:>7}{total_code:>7}")


if __name__ == "__main__":
    main()
