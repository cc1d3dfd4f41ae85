import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import awgshuffle
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
            return replace(fabric, outputs=outputs)

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

    def test_dot_at_the_cap_peaks_near_the_build(self, tmp_path):
        # W(1000,1000,1): one million cables, 85 MB of DOT text
        path = tmp_path / "w.dot"
        argv = ["synth", "--g", "1000", "--m", "1000", "--n", "1", "--format", "dot",
                "--out", str(path)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(awgshuffle.__file__).parents[1]), env.get("PYTHONPATH", "")])

        def peak_kb(statement):
            # each child reports its own RUSAGE_SELF peak on its last line
            script = (f"import resource, awgshuffle\n{statement}\n"
                      "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            return int(done.stdout.split()[-1])

        build = peak_kb("awgshuffle.build_network(1000, 1000, 1)")
        synth = peak_kb(f"assert awgshuffle.cli_main({argv!r}) == 0")
        assert synth <= 1.15 * build
        assert path.stat().st_size > 80_000_000

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
