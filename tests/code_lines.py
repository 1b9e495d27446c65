"""Count the code lines of each module of src/borcherdskit, and their total.

A code line is non-blank, is not a ``#`` comment, and lies outside every
docstring, the docstrings being found with ``ast`` (the first statement of a
module, class or function body, when it is a string). Run it from anywhere:

    python tests/code_lines.py

It only reports; it never fails on size.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "borcherdskit"


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#") and number not in skip)


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<12} {count:>5}")
    print(f"{'total':<12} {total:>5}")


if __name__ == "__main__":
    main()
