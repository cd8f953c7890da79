"""Command-line surface: thresholds, simulate, sweep, fit."""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from . import __version__
from . import diagnostics as diag
from . import harness
from . import thresholds as th
from .harness import EXIT_AUDIT, EXIT_CONFIG, EXIT_PASS

__all__ = ["cli", "main"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors with exit code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kslab", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"kslab {__version__}"
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_thr = sub.add_parser(
        "thresholds", help="print damping/convergence thresholds", add_help=True
    )
    p_thr.add_argument("--config", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario end to end")
    p_sim.add_argument("--config", required=True)

    p_swp = sub.add_parser("sweep", help="run a parameter sweep")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--axis", required=True)
    p_swp.add_argument("--values", required=True)

    p_fit = sub.add_parser("fit", help="fit a decay rate to a stored series")
    p_fit.add_argument("--csv", required=True)
    p_fit.add_argument("--column", required=True)
    p_fit.add_argument("--window", required=True, help="start,end")
    return parser


def _load_config(path: str) -> harness.ExperimentConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise harness.ConfigError(f"cannot read config {path}: {exc}")
    return harness.parse_config(text)


def _cmd_thresholds(args) -> int:
    cfg = _load_config(args.config)
    lines = {}  # report.txt's threshold lines
    harness._report_thresholds(lines, th.report(cfg.params, cfg.convex))
    for key, value in lines.items():
        print(f"{key}: {value}")
    return EXIT_PASS


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    result = harness.run_scenario(cfg)
    print(f"scenario: {cfg.scenario}")
    print(f"verdict: {result.report.get('verdict', 'n/a')}")
    print(f"report: {result.output_dir / 'report.txt'}")
    return result.exit_code


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    try:
        values = harness._numbers(args.values)
    except ValueError as exc:
        raise harness.ConfigError(f"--values: {exc}")
    rows = harness.run_sweep(cfg, args.axis, values)
    failures = sum(1 for r in rows if r["error"])
    print(f"points: {len(rows)}  failures: {failures}")
    print(f"summary: {Path(cfg.output_dir) / 'summary.csv'}")
    return EXIT_PASS


def _cmd_fit(args) -> int:
    try:
        start, end = (float(x) for x in args.window.split(","))
    except ValueError:
        raise harness.ConfigError(f"bad --window, expected start,end: {args.window!r}")
    try:
        text = Path(args.csv).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise harness.ConfigError(f"cannot read csv {args.csv}: {exc}")
    reader = csv.DictReader(io.StringIO(text))
    for name in (args.column, "t"):
        if name not in (reader.fieldnames or ()):
            raise harness.ConfigError(f"column {name!r} not in {args.csv}")
    times, values = [], []
    for line, row in enumerate(reader, start=1):
        if not row[args.column]:
            continue
        for name, out in (("t", times), (args.column, values)):
            try:
                out.append(float(row[name]))
            except (TypeError, ValueError):  # TypeError: a short row's None
                raise harness.ConfigError(
                    f"column {name!r}, data row {line} of {args.csv}: "
                    f"not a number: {row[name]!r}"
                )
    try:
        fit = diag.fit_decay(times, values, (start, end))
    except ValueError as exc:
        raise harness.ConfigError(str(exc))
    print(f"model: {fit.model}")
    print(f"rate: {fit.rate!r}")
    print(f"goodness: {fit.goodness!r}")
    return EXIT_PASS


def cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_CONFIG
        handler = {
            "thresholds": _cmd_thresholds,
            "simulate": _cmd_simulate,
            "sweep": _cmd_sweep,
            "fit": _cmd_fit,
        }[args.command]
        return handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
