"""List the package lines that the tests never run: a line-coverage check on the stdlib alone.

    PYTHONPATH=src python3 tools/lines.py [pytest arguments]

runs pytest in this process under a line tracer (``sys.settrace`` and
``threading.settrace``) and prints each line of ``src/awgshuffle`` that a
code object of its module can reach (``co_lines()``, nested code objects
included) but that no test ran, with the function that holds it. A line
may stay unrun only where ALLOWED names its module or function with a
reason; the tool exits 1 on any other unrun line, and on an entry of
ALLOWED that no unrun line needs. The tests' own outcome is not judged
here: the tracer slows every package call, so a test with a timing bound
may fail under it, and the plain test run gates pass and fail.

The tracer is installed before pytest starts, so that the package's
module-level lines run under it, and again before each test, because
Hypothesis replaces it, and then clears it, to explain a failing example.
Python 3.12+ runs it too, more slowly than ``sys.monitoring`` would.
"""

import ast
import sys
import threading
from fnmatch import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "awgshuffle"
# unrun lines allowed, by a pattern of module or module.function (with what is nested in
# it): the reason
ALLOWED = {
    "*.TYPE_CHECKING": "imports for annotations only, which no run executes",
    "__main__": "runs only as `python -m awgshuffle`, in the CLI tests' child processes",
    "cli.main": "the console script's entry point, run only in the CLI tests' child processes",
}


def reachable(path: Path) -> dict[int, str]:
    """Every line a code object compiled from ``path`` can run, and the function holding it.

    A line of several code objects belongs to the innermost; module-level
    lines belong to "", and those in the body of ``if TYPE_CHECKING:`` to
    "TYPE_CHECKING".
    """
    source = path.read_text(encoding="utf-8")
    lines = {}
    stack = [compile(source, str(path), "exec")]
    while stack:  # a code object is popped before the ones nested in it
        code = stack.pop()
        name = "" if code.co_name == "<module>" else getattr(code, "co_qualname", code.co_name)
        # line 0, a module's opening RESUME, and None, an artificial instruction, never run
        lines.update((line, name) for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for line in range(node.body[0].lineno, node.body[-1].end_lineno + 1):
                if line in lines:
                    lines[line] = "TYPE_CHECKING"
    return lines


class LineTracer:
    """Record each (file, line) run in the files under ``directory``."""

    def __init__(self, directory: Path) -> None:
        self.prefix = f"{directory.resolve()}/"
        self.hits = set()

    def __call__(self, frame, event, arg):  # the global tracer: a new frame
        return self.local if frame.f_code.co_filename.startswith(self.prefix) else None

    def local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local

    def install(self) -> None:
        sys.settrace(self)
        threading.settrace(self)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item) -> None:
        self.install()


def unrun(package: Path, pytest_args: list[str]) -> tuple[int, dict[Path, dict[int, str]]]:
    """Run pytest under the tracer; return its exit status and, for each file of
    ``package`` with lines never run, those lines and the functions holding them."""
    tracer = LineTracer(package)
    previous = sys.gettrace(), threading.gettrace()
    tracer.install()
    try:
        status = pytest.main(pytest_args, plugins=[tracer])
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    missed = {}
    for path in sorted(package.resolve().rglob("*.py")):
        ran = {line for file, line in tracer.hits if file == str(path)}
        lines = {line: name for line, name in sorted(reachable(path).items()) if line not in ran}
        if lines:
            missed[path] = lines
    return status, missed


def main(pytest_args: list[str]) -> int:
    status, missed = unrun(PACKAGE, pytest_args)
    failing, used = 0, set()
    for path, lines in missed.items():
        for line, name in lines.items():
            where = f"{path.stem}.{name}".rstrip(".")
            key = next((key for key in ALLOWED if fnmatch(f"{where}.", f"{key}.*")), None)
            used.add(key)
            failing += key is None
            allowed = f"  allowed: {ALLOWED[key]}" if key else ""
            print(f"{path.relative_to(ROOT)}:{line} {where}{allowed}")
    for key in ALLOWED.keys() - used:
        print(f"ALLOWED[{key!r}] holds no unrun line")
    failing += len(ALLOWED.keys() - used)
    print(f"{failing} unrun lines or allow-list entries to mend (pytest exited {status})")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
