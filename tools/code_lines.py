"""Print the code lines and settable values of each module of `src/tomolyap`
and their totals.

A code line holds at least one token that is not part of a comment or a
docstring; blank lines do not count.  A docstring is the string statement
that opens a module, class or function.

A settable value is a parameter with a default of a public function or
method (`__init__` included), or a field with a default of a public
dataclass: each is a value a caller may set but need not.  Public means that
the name does not start with an underscore, or is a dunder; functions nested
in functions do not count.

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tomolyap"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def defaulted_parameters(node: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = node.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def settable_values(tree: ast.Module) -> int:
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    count = 0
    for node in tree.body:
        if isinstance(node, functions) and public(node.name):
            count += defaulted_parameters(node)
        elif isinstance(node, ast.ClassDef) and public(node.name):
            fields = is_dataclass(node)
            for item in node.body:
                if isinstance(item, functions) and public(item.name):
                    count += defaulted_parameters(item)
                elif fields and isinstance(item, ast.AnnAssign) and item.value is not None:
                    count += 1
    return count


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main() -> int:
    total = settable = 0
    print(f"{'module':20s} {'code':>6s} {'settable':>9s}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        count, values = code_lines(source), settable_values(ast.parse(source))
        total += count
        settable += values
        print(f"{path.name:20s} {count:6,d} {values:9d}")
    print(f"{'total':20s} {total:6,d} {settable:9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
