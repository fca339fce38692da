"""Count the code lines of each module of a package directory.

A code line is a line that holds a token other than a comment, a newline or
an indent, and is no line of a module, class or function docstring. So the
count moves with the code alone, not with its comments or docstrings.

    python tests/code_lines.py [DIR]

prints one line per `*.py` file of DIR (default: the `src/dehn` beside this
directory), then their total. A script, not a test: pytest collects only
`test_*.py`.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The code lines of the Python source `text`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main(argv) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "dehn"
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(root.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
