"""Print the size of each module of a Python package: `wc -l` lines and code lines.

A code line holds a token other than a comment, a line break, INDENT, DEDENT
or ENDMARKER, and is not part of a string-expression statement (a docstring
or a bare string).  A token that spans several lines, such as a triple-quoted
string argument, makes each of them a code line.

    python tools/source_size.py [PACKAGE_DIR]    # default: src/gegenkit
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _string_statement_lines(tree: ast.AST) -> set:
    return {line
            for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for line in range(node.lineno, node.end_lineno + 1)}


def sizes(path: Path) -> tuple:
    """(`wc -l` lines, code lines) of the Python file at `path`."""
    source = path.read_text(encoding="utf-8")
    skip = _string_statement_lines(ast.parse(source, str(path)))
    with path.open("rb") as f:
        code = {line
                for tok in tokenize.tokenize(f.readline)
                if tok.type not in _LAYOUT and tok.type != tokenize.ENCODING
                for line in range(tok.start[0], tok.end[0] + 1)}
    return source.count("\n"), len(code - skip)


def main(argv: list) -> None:
    root = Path(argv[0] if argv else "src/gegenkit")
    total_wc = total_code = 0
    print(f"{'module':<20} {'wc -l':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        wc, code = sizes(path)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.stem:<20} {wc:>6} {code:>6}")
    print(f"{'total':<20} {total_wc:>6} {total_code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
