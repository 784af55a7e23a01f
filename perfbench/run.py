#!/usr/bin/env python3
"""Benchmark for quditbv: end-to-end metrics per workload, per-layer when traced.

Run from the repository root (the program is imported from ``src/``):

    python3 perfbench/run.py --workload edge_wide --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload small_batch --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --shapes 2,20 3,12 16,5 64,3 256,2 --seed 0 --seconds 1 --trace 1

Workloads (closed loop, one client, one process, BLAS threads = min(2, nproc)):

* ``edge_wide``: ``run_quantum_bv`` at d=16, n=5, 2**24 amplitudes (256 MiB),
  the default budget; dominated by the two Fourier layers.
* ``edge_qubit``: ``run_quantum_bv`` at d=2, n=22, 2**23 amplitudes in 45
  gates; the oracle's index grid dominates memory.
* ``small_batch``: a seeded stream over the 37 shapes with 2 <= d <= 9 and
  d**(n+1) <= 4096; each instance runs the quantum and classical solvers,
  compares ``quantum_bv_states`` with ``dense_reference_bv`` where
  d**(n+1) <= 256, and checks 8 ``measure_register`` draws.

Every run, on every workload, also times ``run_all_checks()`` three times
(before the measured loop, halfway through it, after it) and makes 30
``python -m quditbv run --mode both`` subprocess calls on small shapes,
spread evenly through the loop's time.
``setup_s`` is the median of 7 fresh processes that import numpy and quditbv,
generate the inputs and run the warm-up operations; they run before and after
the rest.

The loop does not start an operation that, taking as long as the last one,
would end after ``--seconds``; so on the edge workloads a run holds a single
solve.  The sample count of every metric is printed on the ``# meta`` line.

The gated timings are fastest-of-repeats, as ``timeit`` reports them: a
shared 2-vCPU Xeon VM slows by up to 1.5x for seconds at a time, and a
median or mean of one run moves with the share of the run those episodes
cover (there, a ten-seed spread of 0.18-0.33 on small_batch), while the
fastest repeat of each shape stays within about 0.05.  So:

* ``solve_s_min``: each shape's fastest ``run_quantum_bv`` wall time in the
  run, geometric mean over the shapes (the one solve on the edge workloads);
* ``instances_per_s_peak``: the number of shapes over the sum of each
  shape's fastest full-instance time, i.e. the rate of one instance of every
  shape at its fastest;
* ``selfcheck_s_min`` and ``cli_run_s_min``: the fastest of the three
  ``run_all_checks()`` calls and of the 30 CLI calls.

The medians and the tail (``solve_s_p50``, ``solve_s_p99``, the highest
percentile with at least ten samples beyond it on small_batch),
``instances_per_s`` over the whole loop, ``cli_run_s_p50`` and
``failed_frac`` are printed on the ``#`` summary lines but are not gated:
``failed_frac`` is 0, which is what the result's ``failed`` and ``attempted``
already say.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` half the time runs untraced, half traced (spans from
``tracer.py``, written to ``.perfbench/``), and the last line holds the
per-layer metrics of ``layers.py``.  ``--shapes`` (traced only) solves ad-hoc
shapes for ``--seconds`` each and prints the per-stage table; these shapes
are not gated workloads.  The exit status is 0 only when the run completed;
``correct`` is false when any operation failed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("edge_wide", "edge_qubit", "small_batch")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 120
UNITS = {
    "solve_s_min": "s",
    "instances_per_s_peak": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "selfcheck_s_min": "s",
    "cli_run_s_min": "s",
}


def shape(text: str) -> tuple[int, int]:
    try:
        d, n = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected D,N, got {text!r}") from None
    if d < 2 or n < 1:
        raise argparse.ArgumentTypeError(f"need d >= 2 and n >= 1, got {text!r}")
    return d, n


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--shapes", nargs="+", metavar="D,N", type=shape,
                        help="ad-hoc shapes, traced mode only")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time (used for setup_s)")
    args = parser.parse_args(argv)
    if args.shapes and not args.trace:
        parser.error("--shapes needs --trace 1")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_subprocess(cmd: list[str]) -> str:
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:4]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc.stdout.strip().splitlines()[-1]


def times_of_processes(cmd: list[str], repeats: int) -> list[float]:
    """Each process prints the seconds it measured as its last line."""
    return [float(run_subprocess(cmd)) for _ in range(repeats)]


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def metadata(np, shapes, samples: dict[str, int]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "mem_total_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src_digest(),
        "shapes": [{"d": d, "n": n, "amps": d ** (n + 1), "state_bytes": 16 * d ** (n + 1)}
                   for d, n in sorted(set(shapes))],
        "samples": samples,
    }


def emit(gate, metrics: dict[str, tuple[float | None, str]], meta: dict, header: str,
         ungated: dict[str, tuple[float | None, str]] | None = None) -> None:
    frac = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"# {header} attempted={gate.attempted} failed={gate.failed} failed_frac={frac}")
    for name, (value, unit) in {**metrics, **(ungated or {})}.items():
        note = "" if name in metrics else " (not gated)"
        print(f"#   {name:40s} {value!r:>24} {unit:6s} n={meta['samples'].get(name, 1)}{note}")
    for problem in gate.problems:
        print(f"# FAILED {problem}".replace("\n", " | "))
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "quditbv" / "__init__.py").is_file():
        print(f"error: quditbv sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))

    setup_start = time.perf_counter()
    import numpy as np
    import workloads as wl

    if args.shapes:
        return run_shapes(args, np, wl)
    workload = wl.WORKLOADS[args.workload]
    gate = wl.Gate()
    inputs = wl.make_inputs(workload, args.seed)
    wl.warm_up(workload, inputs, gate)
    setup_here = time.perf_counter() - setup_start
    if args.setup_only:
        if gate.failed:
            print("\n".join(gate.problems), file=sys.stderr)
            return 1
        print(repr(setup_here))
        return 0

    header = f"workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}"
    measured_run = traced_run if args.trace else untraced_run
    metrics, ungated, samples = measured_run(args, np, wl, workload, inputs, gate)
    meta = metadata(np, workload.shapes, samples)
    meta["setup_in_process_s"] = setup_here
    meta["workload"], meta["seed"], meta["seconds"] = workload.name, args.seed, args.seconds
    emit(gate, metrics, meta, header, ungated)
    return 0


def cli_calls(wl, argvs, gate, tracer=None) -> list[float]:
    times = [wl.cli_call(argv, gate, ROOT, tracer) for argv in argvs]
    return [t for t in times if t is not None]


def untraced_run(args, np, wl, workload, inputs, gate) -> tuple[dict, dict, dict]:
    """End-to-end metrics, the printed-only ones, and sample counts."""
    setup_cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                 "--workload", workload.name, "--seed", str(args.seed)]
    # The machine's speed wanders over seconds, so the set-up probes sit
    # before and after the loop, and the three self-checks and the CLI calls
    # are spread around and through it: each then samples several moments.
    cli_s, selfcheck_s = [], []

    def check():
        selfcheck_s.append(wl.selfcheck(gate))

    calls = [lambda argv=argv: cli_s.append(wl.cli_call(argv, gate, ROOT))
             for argv in inputs.cli_argvs]
    calls.insert(len(calls) // 2, check)
    setup_s = times_of_processes(setup_cmd, SETUP_REPEATS // 2)
    check()
    loop = wl.measure(workload, inputs, args.seconds, gate, between=calls)
    check()
    setup_s += times_of_processes(setup_cmd, SETUP_REPEATS - len(setup_s))
    selfcheck_s = [t for t in selfcheck_s if t is not None]
    cli_s = [t for t in cli_s if t is not None]
    solves = loop.solve_s
    fastest_solves = list(loop.fastest_solve_s.values())
    samples = dict(solve_s_min=len(solves), instances_per_s_peak=loop.ops, setup_s=SETUP_REPEATS,
                   selfcheck_s_min=len(selfcheck_s), cli_run_s_min=len(cli_s), peak_rss_mib=1,
                   solve_s_p50=len(solves), solve_s_p99=len(solves), instances_per_s=loop.ops,
                   cli_run_s_p50=len(cli_s))
    values = {
        "solve_s_min": statistics.geometric_mean(fastest_solves) if fastest_solves else None,
        "instances_per_s_peak": len(loop.fastest_op_s) / sum(loop.fastest_op_s.values()),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_s),
        "selfcheck_s_min": min(selfcheck_s) if selfcheck_s else None,
        "cli_run_s_min": min(cli_s) if cli_s else None,
    }
    ungated = {
        "solve_s_p50": (statistics.median(solves) if solves else None, "s"),
        "solve_s_p99": (float(np.percentile(solves, 99)) if solves else None, "s"),
        "instances_per_s": (loop.ops_per_s, "1/s"),
        "cli_run_s_p50": (statistics.median(cli_s) if cli_s else None, "s"),
    }
    return {name: (value, UNITS[name]) for name, value in values.items()}, ungated, samples


def traced_run(args, np, wl, workload, inputs, gate) -> tuple[dict, dict, dict]:
    """Per-layer metrics, none printed-only, and sample counts."""
    import layers
    from tracer import Tracer

    half = args.seconds / 2
    untraced = wl.measure(workload, inputs, half, gate)
    with Tracer(layers.TARGETS) as tracer:
        traced = wl.measure(workload, inputs, half, gate, tracer, start_at=untraced.ops)
        wl.selfcheck(gate, tracer)
        cli_calls(wl, inputs.cli_argvs, gate, tracer)
    import_cmd = [sys.executable, "-c", "import time; t = time.perf_counter(); import quditbv; "
                  "print(repr(time.perf_counter() - t))"]
    cli_import_s = statistics.median(times_of_processes(import_cmd, IMPORT_REPEATS))
    values, counts = layers.layer_metrics(tracer, untraced.ops_per_s, traced.ops_per_s,
                                          cli_import_s)
    samples = dict(counts, **{"cli.import_s": IMPORT_REPEATS})
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz")
    metrics = {name: (values[name], spec[0]) for name, spec in layers.LAYER_METRICS.items()}
    return metrics, {}, samples


def run_shapes(args, np, wl) -> int:
    """Trace ``run_quantum_bv`` on each ad-hoc shape for ``--seconds``."""
    import layers
    from tracer import Tracer

    gate = wl.Gate()
    metrics, samples = {}, {}
    columns = ("fwd_layer_s", "oracle.apply_quantum_s", "inv_layer_s", "readout_s", "solve_s",
               "solve_peak_mib")
    print("# " + " ".join(f"{c:>22s}" for c in ("d,n", "amps", "solves") + columns))
    for d, n in args.shapes:
        workload = wl.Workload(f"d{d}n{n}", ((d, n),), ((d, 1),), full=False)
        inputs = wl.make_inputs(workload, args.seed)
        wl.warm_up(workload, inputs, gate)
        with Tracer(layers.TARGETS) as tracer:
            loop = wl.measure(workload, inputs, args.seconds, gate, tracer)
        values, _ = layers.layer_metrics(tracer, 1.0, 1.0, 0.0)
        row = []
        for column in columns:
            name = column if "." in column else f"algorithm.{column}"
            unit = layers.LAYER_METRICS[name][0]
            metrics[f"{workload.name}.{name}"] = (values[name], unit)
            samples[f"{workload.name}.{name}"] = loop.ops
            row.append(values[name])
        print("# " + " ".join(f"{v:>22}" for v in (f"{d},{n}", d ** (n + 1), loop.ops, *row)))
    emit(gate, metrics, metadata(np, args.shapes, samples), f"shapes seed={args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
