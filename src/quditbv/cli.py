"""Command-line harness: run experiments, sweep sizes, and self-check.

Each command takes one route from argv to stdout: argparse and two helpers
reject bad arguments with the usage status, ``run_experiment`` picks the
solvers for ``run`` and ``sweep`` alike, and ``_render_rows`` writes the rows.

Output is deterministic: under a given OpenBLAS kernel the same argv always
produces byte-identical stdout.  Exit codes: 0 success, 2 usage error
(including a malformed amplitude budget), 3 capacity exceeded, 4 internal
consistency failure (selfcheck returns 1 when any check fails).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import product
from typing import Sequence

import numpy as np

from .algorithm import RunReport, run_classical_bv, run_quantum_bv
from .errors import CapacityError, ConsistencyError, DomainError, check_int, check_sequence, check_type
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


def _secret_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[int, ...]:
    """The ``run`` secret, parsed from ``--secret`` or drawn from ``--seed``; bad input exits 2."""
    if args.d < 2:
        parser.error(f"--d must be at least 2, got {args.d}")
    if args.n < 1:
        parser.error(f"--n must be at least 1, got {args.n}")
    if args.secret is None:
        return random_secret(args.d, args.n, np.random.default_rng(args.seed))
    try:
        digits = [int(tok) for tok in args.secret.split(",")]
    except ValueError:
        parser.error(f"--secret must be comma-separated integers, got {args.secret!r}")
    try:
        return validate_digits(digits, args.d, length=args.n)
    except DomainError as exc:
        parser.error(str(exc))


def run_experiment(secret: Sequence[int], d: int, mode: str) -> list[RunReport]:
    """Solve one instance in ``mode``, one fresh oracle per solver.

    With ``mode="both"`` the quantum and classical solvers are given separate
    oracles holding the same secret, so each report's query count reflects
    only its own solver.
    """
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    modes = ("quantum", "classical") if mode == "both" else (mode,)
    reports = []
    for m in modes:
        solver = run_quantum_bv if m == "quantum" else run_classical_bv
        reports.append(solver(LinearOracle(secret, d)))
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
) -> str:
    """Serialize run reports and return the text; the columns are ``REPORT_FIELDS``, in order.

    A row takes the report's own fields, plus ``secret`` and ``seed`` from the
    caller: solvers never see the secret, and the seed only drew it.  JSON
    renders digit strings as integer arrays; csv and text join them with ``-``.
    """
    if output_format not in FORMATS:
        raise DomainError(f"output format must be one of {FORMATS}, got {output_format!r}")
    secret = tuple(check_int(v, "secret digit", minimum=0) for v in check_sequence(secret, "secret"))
    seed = check_int(seed, "seed")
    values = [{**vars(check_type(r, RunReport, "report")), "secret": secret, "seed": seed} for r in reports]
    rows = [{field: row[field] for field in REPORT_FIELDS} for row in values]
    return _render_rows(rows, output_format, fields=REPORT_FIELDS)


def _parse_range(
    text: str, label: str, minimum: int, parser: argparse.ArgumentParser
) -> range:
    """Parse ``v`` or ``lo..hi``; exit 2 when malformed, empty or below ``minimum``."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        parser.error(f"--{label} must be an integer or a range like 2..5, got {text!r}")
    if hi < lo:
        parser.error(f"--{label} range {text!r} is empty")
    if lo < minimum:
        parser.error(f"--{label} values must be at least {minimum}, got {lo}")
    return range(lo, hi + 1)


def _sweep_rows(d_values: Sequence[int], n_values: Sequence[int], seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows = []
    for d, n in product(d_values, n_values):
        secret = random_secret(d, n, rng)
        quantum, classical = run_experiment(secret, d, "both")
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
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # run and sweep; numpy seeds are non-negative
        parser.error(f"--seed must be at least 0, got {args.seed}")
    try:
        if args.command == "run":
            secret = _secret_from_args(args, parser)
            reports = run_experiment(secret, args.d, args.mode)
            sys.stdout.write(emit_report(reports, args.output_format, secret, args.seed))
            return 0
        if args.command == "sweep":
            d_values = _parse_range(args.d, "d", 2, parser)
            n_values = _parse_range(args.n, "n", 1, parser)
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
