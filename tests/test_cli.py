import json
import os
import subprocess
import sys

import pytest
from conftest import rewired

import awgshuffle.analysis as analysis
from awgshuffle import build_network, cli_main, parse_topology, serialize_topology
from awgshuffle.serialize import _BLOCK


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_pass_summary_and_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--g", "3", "--m", "2", "--n", "3")
        assert code == 0
        assert "18/18 channels match S(3,6)" in out
        assert "result: PASS" in out

    def test_invalid_dimension_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--g", "0", "--m", "1", "--n", "1")
        assert code == 2
        assert "error:" in err

    def test_non_integer_dimension_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--g", "x", "--m", "1", "--n", "1")
        assert code == 2
        assert err  # argparse usage text

    def test_capacity_error_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--g", "100", "--m", "101", "--n", "100")
        assert code == 2
        assert "over the cap" in err

    def test_failure_counts_matches_from_the_one_build(self, capsys, monkeypatch):
        fabric = build_network(3, 2, 3)
        outputs = list(fabric.outputs)
        outputs[4], outputs[13] = outputs[13], outputs[4]
        builds = []

        def build_miswired(*args, **kwargs):
            builds.append(args)
            return rewired(fabric, outputs=outputs)

        monkeypatch.setattr(analysis, "build_network", build_miswired)
        code, out, _ = run(capsys, "verify", "--g", "3", "--m", "2", "--n", "3")
        assert code == 1
        assert builds == [(3, 2, 3)]
        lines = out.splitlines()
        assert lines[0] == "16/18 channels match S(3,6)"
        assert lines[1] == (
            "oracle-equivalence: FAIL (input 011 reaches 012, oracle expects 110)"
        )
        assert lines[-1] == "result: FAIL"

    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "--g", "4", "--m", "3", "--n", "2",
            "--report", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["passed"] is True
        assert doc["params"] == {
            "g": 4, "m": 3, "n": 2, "channel_count": 24, "lambda_count": 4
        }

    def test_unwritable_report_path_exits_two(self, capsys, tmp_path):
        path = str(tmp_path / "missing" / "report.json")
        code, out, err = run(
            capsys, "verify", "--g", "3", "--m", "2", "--n", "3", "--report", path
        )
        assert code == 2
        assert out.endswith("result: PASS\n")
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_report_path_that_is_a_directory_exits_two(self, capsys, tmp_path):
        path = str(tmp_path / "sub")
        os.mkdir(path)
        code, out, err = run(
            capsys, "verify", "--g", "3", "--m", "2", "--n", "3", "--report", path
        )
        assert code == 2
        assert out.endswith("result: PASS\n")
        assert err == f"error: [Errno 21] Is a directory: '{path}'\n"
        assert os.listdir(tmp_path) == ["sub"] and os.listdir(path) == []


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert "usage" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "verify", "--g", "3", "--m", "2", "--n", "3", "--wat")
        assert code == 2
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        capsys.readouterr()


TOP_HELP = """\
usage: awgshuffle [-h] [--version] {synth,verify,trace,tradeoff,oracle} ...

Synthesize wavelength-routed shuffle fabrics, verify them against the
classical perfect shuffle, and tabulate resource tradeoffs.

positional arguments:
  {synth,verify,trace,tradeoff,oracle}
    synth               build W(g,m,n) and write it to a file
    verify              check W(g,m,n) against the perfect-shuffle oracle
    trace               trace one (group, port, wavelength) channel
    tradeoff            tabulate every m*n factorization of a fixed fanout l
    oracle              print the classical shuffle S(g,l) as a decimal
                        permutation

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""

SYNTH_USAGE = "usage: awgshuffle synth [-h] --g G --m M --n N --out OUT [--format {json,dot}]\n"

SYNTH_HELP = SYNTH_USAGE + """
options:
  -h, --help           show this help message and exit
  --g G                input group count
  --m M                ports per group / router count
  --n N                wavelengths per fiber
  --out OUT            output file path
  --format {json,dot}  output format
"""


class TestGoldenUsage:
    """The help texts and the bad-format usage error, byte for byte, at 80 columns."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_top_level_help(self, capsys):
        assert run(capsys, "--help") == (0, TOP_HELP, "")

    def test_synth_help(self, capsys):
        assert run(capsys, "synth", "--help") == (0, SYNTH_HELP, "")

    def test_synth_bad_format(self, capsys):
        code, out, err = run(
            capsys, "synth", "--g", "1", "--m", "1", "--n", "1", "--out", "x", "--format", "xml"
        )
        # later argparse releases print the choices with str() instead of repr()
        assert (code, out) == (2, "")
        assert err in {
            SYNTH_USAGE + "awgshuffle synth: error: argument --format: invalid choice: "
            f"'xml' (choose from {choices})\n"
            for choices in ("'json', 'dot'", "json, dot")
        }


class TestTraceCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--g", "3", "--m", "2", "--n", "3",
            "--group", "1", "--port", "0", "--lambda", "0",
        )
        assert code == 0
        assert "path: 102 -> 012 -> 021" in out
        assert "input : group 1, port 0, l0" in out
        assert "middle: awg 0, input 1, l0" in out
        assert "output: awg 0, output 2, l0" in out

    def test_above_the_build_cap_answers_from_the_shape(self, capsys):
        # W(100,100,101) has 1,010,000 channels, over the build cap
        code, out, _ = run(
            capsys, "trace", "--g", "100", "--m", "100", "--n", "101",
            "--group", "99", "--port", "99", "--lambda", "0",
        )
        assert code == 0
        assert out == (
            "input : group 99, port 99, l0  addr 99.99.2\n"
            "middle: awg 99, input 99, l0  addr 99.99.2\n"
            "output: awg 99, output 2, l0  addr 99.2.99\n"
            "path: 99.99.2 -> 99.99.2 -> 99.2.99\n"
        )

    @pytest.mark.parametrize(
        "locus, message",
        [
            (("100", "0", "0"), "group 100 out of range for 100 groups"),
            (("0", "100", "0"), "port 100 out of range for 100 ports per group"),
            (("0", "0", "101"), "wavelength index 101 out of range for 101 wavelengths"),
        ],
    )
    def test_out_of_range_locus_exits_two(self, capsys, locus, message):
        group, port, wavelength = locus
        code, _, err = run(
            capsys, "trace", "--g", "100", "--m", "100", "--n", "101",
            "--group", group, "--port", port, "--lambda", wavelength,
        )
        assert code == 2
        assert err == f"error: {message}\n"

    def test_uncarried_wavelength_exits_two(self, capsys):
        code, _, err = run(
            capsys, "trace", "--g", "4", "--m", "3", "--n", "2",
            "--group", "0", "--port", "0", "--lambda", "3",
        )
        assert code == 2
        assert "carries wavelengths" in err


class TestTradeoffCommand:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "tradeoff", "--g", "2", "--l", "12")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == [
            "n", "m", "wavelengths", "awg_size", "cables", "channels", "note"
        ]
        assert len(lines) == 7
        assert "g >= n" in lines[1]
        assert "g >= n" not in lines[3]

    def test_csv_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "tradeoff", "--g", "2", "--l", "12", "--csv", str(path)
        )
        assert code == 0
        content = path.read_text()
        assert content.startswith(
            "n,m,wavelengths,awg_inputs,awg_outputs,cables,channels\n"
        )
        assert "12,1,12,2,12,0,24\n" in content


    def test_fanout_over_the_cap_exits_two(self, capsys):
        code, out, err = run(capsys, "tradeoff", "--g", "1", "--l", "1000001")
        assert code == 2
        assert out == ""
        assert "over the cap of 1000000" in err


class TestOracleCommand:
    def test_s36_frozen(self, capsys):
        code, out, _ = run(capsys, "oracle", "--g", "3", "--l", "6")
        assert code == 0
        assert out == "0 3 6 9 12 15 1 4 7 10 13 16 2 5 8 11 14 17\n"

    def test_degenerate(self, capsys):
        code, out, _ = run(capsys, "oracle", "--g", "1", "--l", "1")
        assert code == 0
        assert out == "0\n"

    def test_over_the_cap_exits_two(self, capsys):
        code, out, err = run(capsys, "oracle", "--g", "1001", "--l", "1000")
        assert code == 2
        assert out == ""
        assert "over the cap of 1000000" in err


class TestSynthCommand:
    def test_json_output_parses_back(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        code, out, _ = run(
            capsys, "synth", "--g", "3", "--m", "2", "--n", "3", "--out", str(path)
        )
        assert code == 0
        assert f"wrote {path}" in out
        topo = parse_topology(path.read_bytes())
        assert topo.params.channel_count == 18

    def test_dot_output(self, capsys, tmp_path):
        path = tmp_path / "w.dot"
        code, _, _ = run(
            capsys, "synth", "--g", "3", "--m", "1", "--n", "6",
            "--out", str(path), "--format", "dot",
        )
        assert code == 0
        content = path.read_text()
        assert content.count('kind="cable"') == 0
        assert content.count('kind="direct"') == 3

    # W(9,9,30): 2,430 channels, two whole blocks and a partial one
    @pytest.mark.parametrize("shape", [(3, 2, 3), (1, 1, 1), (9, 9, 30)])
    def test_streamed_json_equals_serialize_topology(self, capsys, tmp_path, shape):
        path = tmp_path / "w.json"
        g, m, n = (str(d) for d in shape)
        code, _, _ = run(capsys, "synth", "--g", g, "--m", m, "--n", n, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == serialize_topology(build_network(*shape), "json")
        assert [p.name for p in tmp_path.iterdir()] == ["w.json"]

    def test_streamed_shape_spans_blocks(self):
        assert 9 * 9 * 30 > 2 * _BLOCK and (9 * 9 * 30) % _BLOCK

    @staticmethod
    def loaded(tmp_path, fmt):
        """A statement that writes a one-channel fabric in ``fmt``: before the cap build it
        loads what a cap synth loads, so the two peaks differ by the render alone."""
        argv = ["synth", "--g", "1", "--m", "1", "--n", "1", "--format", fmt,
                "--out", str(tmp_path / f"one.{fmt}")]
        return f"assert awgshuffle.cli_main({argv!r}) == 0\n"

    def test_dot_at_the_cap_peaks_near_the_build(self, tmp_path, peak_kb):
        # W(1000,1000,1): one million cables, 85 MB of DOT text
        path = tmp_path / "w.dot"
        argv = ["synth", "--g", "1000", "--m", "1000", "--n", "1", "--format", "dot",
                "--out", str(path)]
        build = peak_kb(self.loaded(tmp_path, "dot") + "awgshuffle.build_network(1000, 1000, 1)")
        synth = peak_kb(f"assert awgshuffle.cli_main({argv!r}) == 0")
        assert synth <= 1.15 * build
        assert path.stat().st_size > 80_000_000

    def test_json_at_the_cap_peaks_near_the_build(self, tmp_path, peak_kb):
        # W(1,1000,1000): one group of a million channels, about 1 GB of JSON;
        # a renderer that held a group's entries, templates or values whole
        # would hold the whole fabric's
        path = tmp_path / "w.json"
        argv = ["synth", "--g", "1", "--m", "1000", "--n", "1000", "--format", "json",
                "--out", str(path)]
        build = peak_kb(self.loaded(tmp_path, "json") + "awgshuffle.build_network(1, 1000, 1000)")
        synth = peak_kb(f"assert awgshuffle.cli_main({argv!r}) == 0")
        assert synth <= 1.15 * build
        assert path.stat().st_size > 900_000_000

    # W(1,1000,100): a thousand router rows in one group; W(300,300,1): 90,000 cables
    @pytest.mark.parametrize("fmt, shape, unit", [("json", (1, 1000, 100), b"\n    {"),
                                                  ("dot", (300, 300, 1), b"\n")],
                             ids=["json", "dot"])
    def test_render_peak_is_a_few_chunks(self, child_env, fmt, shape, unit):
        # the fabric is built before tracing starts, so the traced peak is the
        # render's own; a chunk is _BLOCK list entries (JSON) or lines (DOT) of
        # the document's mean size
        script = ("import tracemalloc, awgshuffle\n"
                  "from awgshuffle.serialize import _EXPORTS\n"
                  f"topology = awgshuffle.build_network(*{shape!r})\n"
                  "tracemalloc.start()\n"
                  "size = units = 0\n"
                  f"for chunk in _EXPORTS[{fmt!r}](topology):\n"
                  f"    size, units = size + len(chunk), units + chunk.count({unit!r})\n"
                  "print(tracemalloc.get_traced_memory()[1], size, units)\n")
        done = subprocess.run([sys.executable, "-c", script], env=child_env,
                              capture_output=True, text=True, check=True)
        peak, size, units = map(int, done.stdout.split())
        assert peak <= 6 * _BLOCK * size / units

    def test_bad_format_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--g", "1", "--m", "1", "--n", "1",
            "--out", str(tmp_path / "x"), "--format", "xml",
        )
        assert code == 2
        assert "usage" in err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_exits_two(self, capsys, tmp_path):
        path = str(tmp_path / "missing" / "x.json")
        code, _, err = run(capsys, "synth", "--g", "1", "--m", "1", "--n", "1", "--out", path)
        assert code == 2
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_path_that_is_a_directory_exits_two(self, capsys, tmp_path):
        path = str(tmp_path / "sub")
        os.mkdir(path)
        code, _, err = run(capsys, "synth", "--g", "1", "--m", "1", "--n", "1", "--out", path)
        assert code == 2
        assert err == f"error: [Errno 21] Is a directory: '{path}'\n"
        assert os.listdir(tmp_path) == ["sub"] and os.listdir(path) == []


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--g", "3", "--m", "2", "--n", "3"],
            ["trace", "--g", "3", "--m", "2", "--n", "3",
             "--group", "1", "--port", "0", "--lambda", "0"],
            ["tradeoff", "--g", "2", "--l", "12"],
            ["oracle", "--g", "4", "--l", "6"],
        ],
    )
    def test_repeated_invocations_byte_identical(self, capsys, argv):
        first_code, first_out, _ = run(capsys, *argv)
        second_code, second_out, _ = run(capsys, *argv)
        assert first_code == second_code
        assert first_out.encode() == second_out.encode()

    def test_repeated_synth_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "synth", "--g", "4", "--m", "3", "--n", "2", "--out", str(a))
        run(capsys, "synth", "--g", "4", "--m", "3", "--n", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


# Run one command as ``python -m awgshuffle`` does, then print the exit code
# and, on the last line, the package's submodules it loaded and which of the
# standard modules dataclasses and inspect it loaded.
_IMPORT_PROBE = """\
import json, runpy, sys
sys.argv = ["awgshuffle", *json.loads(sys.argv[1])]
try:
    runpy.run_module("awgshuffle", run_name="__main__")
except SystemExit as exc:
    code = exc.code
loaded = sorted(m.partition(".")[2] for m in sys.modules if m.startswith("awgshuffle."))
loaded += [m for m in ("dataclasses", "inspect") if m in sys.modules]
print(json.dumps([code, loaded]))
"""

GMN = ["--g", "3", "--m", "2", "--n", "3"]


class TestImportSets:
    """Each command, in a fresh interpreter, loads only the modules it calls."""

    @pytest.fixture
    def imports_of(self, child_env):
        def probe(*argv):
            done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv)],
                                  env=child_env, capture_output=True, text=True, check=True)
            code, modules = json.loads(done.stdout.splitlines()[-1])
            assert code == 0, done.stderr
            return set(modules)

        return probe

    def test_oracle_loads_no_router_model(self, imports_of):
        loaded = imports_of("oracle", "--g", "3", "--l", "6")
        assert "shuffle" in loaded
        assert loaded.isdisjoint({"topology", "awg", "analysis", "serialize"})

    def test_trace_loads_neither_analysis_nor_serialize(self, imports_of):
        loaded = imports_of("trace", *GMN, "--group", "1", "--port", "0", "--lambda", "0")
        assert "topology" in loaded
        assert loaded.isdisjoint({"analysis", "serialize"})

    def test_verify_loads_serialize_only_for_a_report(self, tmp_path, imports_of):
        assert "serialize" not in imports_of("verify", *GMN)
        assert "serialize" in imports_of("verify", *GMN, "--report", str(tmp_path / "r.json"))

    def test_tradeoff_loads_serialize_only_for_csv(self, tmp_path, imports_of):
        assert "serialize" not in imports_of("tradeoff", "--g", "2", "--l", "12")
        assert "serialize" in imports_of("tradeoff", "--g", "2", "--l", "12",
                                         "--csv", str(tmp_path / "t.csv"))

    def test_synth_loads_no_analysis(self, tmp_path, imports_of):
        loaded = imports_of("synth", *GMN, "--out", str(tmp_path / "w.json"))
        assert "serialize" in loaded and "analysis" not in loaded

    def test_no_command_loads_typing(self, tmp_path, child_env):
        # -S: without site, no .pth file can load typing before the command does
        probe = _IMPORT_PROBE + 'print("typing" in sys.modules)\n'
        for argv in (("oracle", "--g", "3", "--l", "6"),
                     ("trace", *GMN, "--group", "1", "--port", "0", "--lambda", "0"),
                     ("verify", *GMN, "--report", str(tmp_path / "r.json")),
                     ("synth", *GMN, "--out", str(tmp_path / "w.json")),
                     ("synth", *GMN, "--format", "dot", "--out", str(tmp_path / "w.dot")),
                     ("tradeoff", "--g", "2", "--l", "12", "--csv", str(tmp_path / "t.csv"))):
            done = subprocess.run([sys.executable, "-S", "-c", probe, json.dumps(argv)],
                                  env=child_env, capture_output=True, text=True, check=True)
            *_, outcome, typing_loaded = done.stdout.splitlines()
            assert json.loads(outcome)[0] == 0, done.stderr
            assert typing_loaded == "False", argv

    def test_no_command_loads_dataclasses_or_inspect(self, tmp_path, imports_of):
        for argv in (("oracle", "--g", "3", "--l", "6"),
                     ("trace", *GMN, "--group", "1", "--port", "0", "--lambda", "0"),
                     ("verify", *GMN, "--report", str(tmp_path / "r.json")),
                     ("synth", *GMN, "--out", str(tmp_path / "w.json")),
                     ("synth", *GMN, "--format", "dot", "--out", str(tmp_path / "w.dot")),
                     ("tradeoff", "--g", "2", "--l", "12", "--csv", str(tmp_path / "t.csv"))):
            assert imports_of(*argv).isdisjoint({"dataclasses", "inspect"}), argv
