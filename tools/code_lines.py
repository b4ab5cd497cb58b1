"""Print the code lines of each module under a source tree, and their total.

A code line is any line that is not blank, not a comment alone and not part
of a module, class or function docstring (found with ast).  Run from the repo
root:

    python tools/code_lines.py [src]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def code_lines(text: str) -> int:
    """Lines of text that hold code outside docstrings."""
    tree = ast.parse(text)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(root: str = "src") -> None:
    total = 0
    for path in sorted(Path(root).rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(*sys.argv[1:])
