"""Command-line harness: run experiments, sweep sizes, and self-check.

Output is deterministic: the same argv always produces byte-identical
stdout.  Exit codes: 0 success, 2 usage error (including a malformed amplitude
budget), 3 capacity exceeded, 4 internal consistency failure (selfcheck
returns 1 when any check fails).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .algorithm import RunReport, run_classical_bv, run_quantum_bv
from .errors import CapacityError, ConsistencyError, DomainError, check_int
from .oracle import LinearOracle, random_secret
from .state import validate_digits
from .verification import run_all_checks

MODES = ("quantum", "classical", "both")
FORMATS = ("json", "csv", "text")
REPORT_FIELDS = (
    "mode",
    "d",
    "n",
    "secret",
    "recovered",
    "oracle_queries",
    "peak_probability",
    "seed",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one experiment invocation."""

    d: int
    n: int
    secret: tuple[int, ...]
    mode: str
    seed: int = 0
    output_format: str = "json"

    def __post_init__(self) -> None:
        secret = validate_digits(self.secret, self.d, length=self.n)
        object.__setattr__(self, "secret", secret)
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "seed", check_int(self.seed, "seed"))
        if self.output_format not in FORMATS:
            raise DomainError(
                f"output format must be one of {FORMATS}, got {self.output_format!r}"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditbv",
        description="Hidden-string recovery on d-level quantum registers.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="solve one instance and report it")
    run_cmd.add_argument("--d", type=int, required=True, help="local dimension, at least 2")
    run_cmd.add_argument("--n", type=int, required=True, help="hidden string length, at least 1")
    run_cmd.add_argument(
        "--secret",
        type=str,
        default=None,
        help="comma-separated digits in [0, d); drawn from the seed when omitted",
    )
    run_cmd.add_argument("--mode", choices=MODES, default="quantum")
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument("--format", choices=FORMATS, default="json", dest="output_format")

    sweep_cmd = commands.add_parser(
        "sweep", help="tabulate query counts over ranges of d and n"
    )
    sweep_cmd.add_argument("--d", type=str, required=True, help="value or range, e.g. 3 or 2..5")
    sweep_cmd.add_argument("--n", type=str, required=True, help="value or range, e.g. 4 or 1..8")
    sweep_cmd.add_argument("--seed", type=int, default=0)
    sweep_cmd.add_argument("--format", choices=FORMATS, default="text", dest="output_format")

    selfcheck_cmd = commands.add_parser(
        "selfcheck", help="run the numeric self-check battery"
    )
    selfcheck_cmd.add_argument("--format", choices=FORMATS, default="text", dest="output_format")
    return parser


def _parse_secret_text(text: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    try:
        return tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError:
        parser.error(f"--secret must be comma-separated integers, got {text!r}")
        raise AssertionError("unreachable")


def _config_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> ExperimentConfig:
    if args.d < 2:
        parser.error(f"--d must be at least 2, got {args.d}")
    if args.n < 1:
        parser.error(f"--n must be at least 1, got {args.n}")
    if args.secret is not None:
        secret = _parse_secret_text(args.secret, parser)
    else:
        secret = random_secret(args.d, args.n, np.random.default_rng(args.seed))
    try:
        return ExperimentConfig(
            d=args.d,
            n=args.n,
            secret=secret,
            mode=args.mode,
            seed=args.seed,
            output_format=args.output_format,
        )
    except DomainError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")


def parse_config(argv: Sequence[str]) -> ExperimentConfig:
    """Parse ``run`` arguments into a fully resolved config.

    Unknown flags, out-of-range numbers, and malformed secrets exit with the
    usage status (2).  When no secret is given, one is drawn reproducibly
    from the seed, so the returned config is always concrete.
    """
    parser = build_parser()
    args = parser.parse_args(list(argv))
    if args.command != "run":
        parser.error(f"parse_config handles the run subcommand, got {args.command!r}")
    return _config_from_args(args, parser)


def run_experiment(config: ExperimentConfig) -> list[RunReport]:
    """Execute the configured run, one fresh oracle per solver.

    With ``mode="both"`` the quantum and classical solvers are given separate
    oracles holding the same secret, so each report's query count reflects
    only its own solver.
    """
    modes = ("quantum", "classical") if config.mode == "both" else (config.mode,)
    reports = []
    for mode in modes:
        oracle = LinearOracle(config.secret, config.d)
        solver = run_quantum_bv if mode == "quantum" else run_classical_bv
        reports.append(solver(oracle))
    return reports


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "-".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_rows(
    rows: list[dict], output_format: str, fields: Sequence[str] | None = None
) -> str:
    """Render dict rows as json, csv, or text; always newline-terminated.

    ``fields`` names the csv header columns, so an empty row list still
    renders a header-only csv.
    """
    if output_format == "json":
        return json.dumps(rows, indent=2) + "\n"
    if output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        header = tuple(fields) if fields is not None else tuple(rows[0].keys()) if rows else ()
        if header:
            writer.writerow(header)
        for row in rows:
            writer.writerow(_format_cell(v) for v in row.values())
        return buffer.getvalue()
    lines = []
    for row in rows:
        lines.append(" ".join(f"{key}={_format_cell(value)}" for key, value in row.items()))
    return "\n".join(lines) + "\n" if lines else ""


def emit_report(
    reports: Sequence[RunReport],
    output_format: str,
    secret: Sequence[int],
    seed: int,
    stream: TextIO | None = None,
) -> str:
    """Serialize run reports with a fixed field order, write, and return.

    JSON renders digit strings as integer arrays; csv and text join digits
    with ``-``.  ``secret`` and ``seed`` are supplied by the caller: solvers
    never see the secret, and the seed only drew it.
    """
    if output_format not in FORMATS:
        raise DomainError(f"output format must be one of {FORMATS}, got {output_format!r}")
    secret = tuple(int(v) for v in secret)
    seed = check_int(seed, "seed")
    rows = []
    for report in reports:
        rows.append(
            {
                "mode": report.mode,
                "d": report.d,
                "n": report.n,
                "secret": list(secret),
                "recovered": list(report.recovered),
                "oracle_queries": report.oracle_queries,
                "peak_probability": report.peak_probability,
                "seed": seed,
            }
        )
    rendered = _render_rows(rows, output_format, fields=REPORT_FIELDS)
    if stream is not None:
        stream.write(rendered)
    return rendered


def _parse_range(text: str, label: str, parser: argparse.ArgumentParser) -> list[int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        parser.error(f"--{label} must be an integer or a range like 2..5, got {text!r}")
        raise AssertionError("unreachable")
    if hi < lo:
        parser.error(f"--{label} range {text!r} is empty")
    return list(range(lo, hi + 1))


def _sweep_rows(d_values: Sequence[int], n_values: Sequence[int], seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows = []
    for d in d_values:
        for n in n_values:
            secret = random_secret(d, n, rng)
            quantum = run_quantum_bv(LinearOracle(secret, d))
            classical = run_classical_bv(LinearOracle(secret, d))
            rows.append(
                {
                    "d": d,
                    "n": n,
                    "secret": list(secret),
                    "quantum_queries": quantum.oracle_queries,
                    "classical_queries": classical.oracle_queries,
                    "recovered_match": quantum.recovered == secret
                    and classical.recovered == secret,
                }
            )
    return rows


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv if argv is None else list(argv))
    try:
        if args.command == "run":
            config = _config_from_args(args, parser)
            reports = run_experiment(config)
            emit_report(reports, config.output_format, config.secret, config.seed, stream=sys.stdout)
            return 0
        if args.command == "sweep":
            d_values = _parse_range(args.d, "d", parser)
            n_values = _parse_range(args.n, "n", parser)
            if d_values[0] < 2:
                parser.error(f"--d values must be at least 2, got {d_values[0]}")
            if n_values[0] < 1:
                parser.error(f"--n values must be at least 1, got {n_values[0]}")
            rows = _sweep_rows(d_values, n_values, args.seed)
            sys.stdout.write(_render_rows(rows, args.output_format))
            return 0
        results = run_all_checks()
        rows = [
            {
                "status": "PASS" if result.passed else "FAIL",
                "name": result.name,
                "max_abs_error": result.max_abs_error,
                "details": result.details,
            }
            for result in results
        ]
        sys.stdout.write(_render_rows(rows, args.output_format))
        return 0 if all(result.passed for result in results) else 1
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
