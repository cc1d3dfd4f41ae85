"""Count the code lines of Python sources: every line but blank lines, comments and docstrings.

    python3 tools/code_lines.py src/awgshuffle/*.py

prints the count of each file and their total. A docstring is the string
that opens a module, class or function body (found with ``ast``); comments
and blank lines are what ``tokenize`` sees outside every other token, so a
multi-line string that is no docstring counts in full.
"""

import ast
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main(paths: list[str]) -> None:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as file:
            count = code_lines(file.read())
        total += count
        print(f"{count:8} {path}")
    print(f"{total:8} total")


if __name__ == "__main__":
    main(sys.argv[1:])
