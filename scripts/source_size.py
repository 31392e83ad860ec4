"""Line counts of the library source, per module and in total.

For each module of src/ikdamp (or of the directory given) it prints the
`wc -l` count and splits the lines by `ast` and `tokenize` into code,
docstring, comment and blank lines, so that a docstring trim is not read
as code removal:

- docstring: a line of the string that opens a module, class or function;
- code: any other line that holds a token other than a comment, including
  every line of a multi-line statement or string;
- comment: a line that holds only a comment;
- blank: the rest.

Run it from the repository root:

    python scripts/source_size.py [DIR]
"""
from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path
from typing import Dict, List, Optional

DEFAULT_DIR = Path(__file__).resolve().parent.parent / "src" / "ikdamp"
COLUMNS = ("wc_l", "code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
           tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> Dict[str, int]:
    """The `wc -l` count of source and its code, docstring, comment and blank lines."""
    docstring = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    comment -= code | docstring
    total = len(source.splitlines())
    return {"wc_l": source.count("\n"), "code": len(code), "docstring": len(docstring),
            "comment": len(comment), "blank": total - len(code | docstring | comment)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=DEFAULT_DIR,
                        help="directory of modules to count (default: src/ikdamp)")
    args = parser.parse_args(argv)
    rows = {p.name: count_lines(p.read_text()) for p in sorted(args.dir.glob("*.py"))}
    rows["total"] = {c: sum(r[c] for r in rows.values()) for c in COLUMNS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
