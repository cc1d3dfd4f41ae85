"""``tools/lines.py`` lists the package lines no test runs: seen on a tiny package whose
test leaves one line unrun."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "lines.py"
_spec = importlib.util.spec_from_file_location("lines", TOOL)
lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lines)

MODULE = '''"""A module the probe test imports under the tracer."""

LIMIT = 3


def clamp(x):
    if x > LIMIT:
        return LIMIT
    return x
'''

TEST = '''from lines_probe.module import clamp


def test_small_values_pass_through():
    assert clamp(1) == 1
'''


def test_a_line_no_test_runs_is_listed(tmp_path, monkeypatch):
    package = tmp_path / "lines_probe"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "module.py").write_text(MODULE)
    (tmp_path / "test_lines_probe.py").write_text(TEST)
    monkeypatch.syspath_prepend(tmp_path)  # restored after the test, with what pytest adds
    status, missed = lines.unrun(package, ["-q", "-s", "-p", "no:cacheprovider",
                                           str(tmp_path / "test_lines_probe.py")])
    assert status == 0
    # the module-level lines ran at import, under the tracer; only the clamp is missed
    assert missed == {(package / "module.py").resolve(): {8: "clamp"}}
