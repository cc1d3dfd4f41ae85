"""Command-line driver: synthesize, verify, trace, and tabulate fabrics.

Exit codes: 0 success (verification passed when verifying), 1
verification failure, 2 usage, capacity, or I/O errors.

Each command imports what it calls inside its handler, so a process
loads only the modules of the command it runs: ``oracle`` the shuffle
alone, ``trace`` the router model without the checks or the exporters,
and ``serialize`` only when there is a file to write.
"""

from __future__ import annotations

import argparse
import sys

from . import _all_of
from ._version import __version__
from .errors import EXPORT_FORMATS, ShuffleNetError

__all__ = _all_of(__spec__.name)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awgshuffle",
        description=(
            "Synthesize wavelength-routed shuffle fabrics, verify them against "
            "the classical perfect shuffle, and tabulate resource tradeoffs."
        ),
    )
    parser.add_argument("--version", action="version", version=f"awgshuffle {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="build W(g,m,n) and write it to a file")
    _add_gmn(synth)
    synth.add_argument("--out", required=True, help="output file path")
    synth.add_argument(
        "--format", choices=EXPORT_FORMATS, default="json", help="output format"
    )
    synth.set_defaults(handler=_cmd_synth)

    verify = sub.add_parser(
        "verify", help="check W(g,m,n) against the perfect-shuffle oracle"
    )
    _add_gmn(verify)
    verify.add_argument("--report", help="also write a JSON report to this path")
    verify.set_defaults(handler=_cmd_verify)

    trace_cmd = sub.add_parser("trace", help="trace one (group, port, wavelength) channel")
    _add_gmn(trace_cmd)
    trace_cmd.add_argument("--group", type=int, required=True, help="input group index")
    trace_cmd.add_argument(
        "--port", type=int, required=True, help="port index within the group"
    )
    trace_cmd.add_argument(
        "--lambda", dest="wavelength", type=int, required=True,
        help="wavelength index",
    )
    trace_cmd.set_defaults(handler=_cmd_trace)

    tradeoff = sub.add_parser(
        "tradeoff", help="tabulate every m*n factorization of a fixed fanout l"
    )
    tradeoff.add_argument("--g", type=int, required=True, help="input group count")
    tradeoff.add_argument("--l", type=int, required=True, help="fanout l = m*n")
    tradeoff.add_argument("--csv", help="also write the table as CSV to this path")
    tradeoff.set_defaults(handler=_cmd_tradeoff)

    oracle = sub.add_parser(
        "oracle", help="print the classical shuffle S(g,l) as a decimal permutation"
    )
    oracle.add_argument("--g", type=int, required=True, help="group count")
    oracle.add_argument("--l", type=int, required=True, help="group size")
    oracle.set_defaults(handler=_cmd_oracle)

    return parser


def _add_gmn(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--g", type=int, required=True, help="input group count")
    parser.add_argument("--m", type=int, required=True, help="ports per group / router count")
    parser.add_argument("--n", type=int, required=True, help="wavelengths per fiber")


def _cmd_synth(args: argparse.Namespace) -> int:
    from .serialize import _EXPORTS, write_bytes
    from .topology import build_network

    topology = build_network(args.g, args.m, args.n)
    # streamed: the output is never whole in memory
    write_bytes(args.out, _EXPORTS[args.format](topology))
    print(
        f"wrote {args.out} ({args.format}, "
        f"{topology.params.channel_count} channels)"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .analysis import verify_shuffle_equivalence

    report = verify_shuffle_equivalence(args.g, args.m, args.n)
    print(
        f"{report.matched}/{report.permutation_size} channels match "
        f"S({args.g},{args.m * args.n})"
    )
    for check in report.checks:
        line = f"{check.name}: {'PASS' if check.passed else 'FAIL'}"
        if check.counterexample is not None:
            line += f" ({check.counterexample})"
        print(line)
    print(f"result: {'PASS' if report.passed else 'FAIL'}")
    if args.report:
        from .serialize import serialize_report, write_bytes

        write_bytes(args.report, serialize_report(report))
    return 0 if report.passed else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .topology import NetworkParams, trace_channel

    params = NetworkParams(args.g, args.m, args.n)
    tr = trace_channel(params, args.group, args.port, args.wavelength)
    stages = (("input ", "group", "port", tr.input_addr),
              ("middle", "awg", "input", tr.middle_addr),
              ("output", "awg", "output", tr.output_addr))
    for stage, device, port, addr in stages:  # a stage's locus: its first two digits
        print(f"{stage}: {device} {addr.digits[0]}, {port} {addr.digits[1]}, l{tr.wavelength}  "
              f"addr {addr}")
    print(f"path: {tr.input_addr} -> {tr.middle_addr} -> {tr.output_addr}")
    return 0


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    from .analysis import tradeoff_table

    rows = tradeoff_table(args.g, args.l)
    header = ("n", "m", "wavelengths", "awg_size", "cables", "channels", "note")
    table = [header]
    for row in rows:
        note = "" if row.awg_inputs < row.awg_outputs else "g >= n"
        table.append(
            (
                str(row.awg_outputs),
                str(row.awg_count),
                str(row.wavelength_count),
                f"{row.awg_inputs}x{row.awg_outputs}",
                str(row.cable_count),
                str(row.channel_count),
                note,
            )
        )
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]
    for line in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    if args.csv:
        from .serialize import tradeoff_csv, write_bytes

        write_bytes(args.csv, tradeoff_csv(rows))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .shuffle import ShuffleSpec, shuffle_perm_decimal

    perm = shuffle_perm_decimal(ShuffleSpec(args.g, args.l))
    print(" ".join(str(value) for value in perm))
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    """Run the CLI and return its exit code (never raises SystemExit)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ShuffleNetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())
