"""Workload inputs, the closed measurement loop and the correctness gate.

Every call into quditbv goes through a public module attribute looked up at
call time (``quditbv.run_quantum_bv``, ``quditbv.cli.main``, ...), so the
tracer's wrappers see it.  Inputs come only from ``numpy.random.default_rng``
streams derived from the benchmark seed; the program receives nothing but the
generated secrets.
"""

from __future__ import annotations

import io
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

import quditbv
import quditbv.cli

# The benchmark's own acceptance constants; they do not follow the program's.
PEAK_FLOOR = 1.0 - 1e-9
DENSE_TOL = 1e-10
DENSE_MAX_AMPS = 256
SMALL_MAX_AMPS = 4096
DRAWS = 8
CLI_CALLS = 30
POOL_REPEATS = 64
CLI_TIMEOUT_S = 120
CLI_FORMATS = ("json", "csv", "text")


def small_shapes() -> tuple[tuple[int, int], ...]:
    """Every (d, n) with 2 <= d <= 9, n >= 1 and d**(n+1) <= 4096 (37 shapes)."""
    shapes = []
    for d in range(2, 10):
        n = 1
        while d ** (n + 1) <= SMALL_MAX_AMPS:
            shapes.append((d, n))
            n += 1
    return tuple(shapes)


@dataclass(frozen=True)
class Workload:
    """Every one of ``shapes`` appears equally often among the instances, in a
    seeded order; ``warmup`` shapes run once during set-up.  ``full`` adds the
    small-instance checks to every operation: the classical solver, the dense
    reference and sampled readouts."""

    name: str
    shapes: tuple[tuple[int, int], ...]
    warmup: tuple[tuple[int, int], ...]
    full: bool


WORKLOADS = {
    "edge_wide": Workload("edge_wide", ((16, 5),), ((16, 1),), full=False),
    "edge_qubit": Workload("edge_qubit", ((2, 22),), ((2, 4),), full=False),
    "small_batch": Workload("small_batch", small_shapes(), small_shapes(), full=True),
}


@dataclass(frozen=True)
class Instance:
    d: int
    n: int
    secret: tuple[int, ...]


class Gate:
    """Counts operations and fails one when any expectation inside it fails
    or it raises; keeps the first few reasons."""

    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._current: list[str] = []

    @contextmanager
    def operation(self, label: str) -> Iterator[None]:
        self.attempted += 1
        self._current = []
        try:
            yield
        except Exception:  # one failed operation must not end the run
            self._current.append(traceback.format_exc(limit=3).strip())
        if self._current:
            self.failed += 1
            if len(self.problems) < self.KEEP:
                self.problems.append(f"{label}: " + "; ".join(self._current))

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self._current.append(what)


@dataclass
class Inputs:
    instances: list[Instance]
    warmup: list[Instance]
    cli_argvs: list[list[str]]
    draw_rng: np.random.Generator


def _draw(rng: np.random.Generator, shapes, repeats: int) -> list[Instance]:
    """Every shape ``repeats`` times in a shuffled order, each with a uniform
    secret: seeds change the order and the secrets but never the shape mix."""
    order = rng.permutation(np.repeat(np.arange(len(shapes)), repeats))
    out = []
    for index in order:
        d, n = shapes[index]
        out.append(Instance(d, n, tuple(int(v) for v in rng.integers(0, d, size=n))))
    return out


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """All inputs of one run, from independent streams of ``seed``."""
    instances = _draw(np.random.default_rng([seed, 0]), workload.shapes, POOL_REPEATS)
    warmup = _draw(np.random.default_rng([seed, 1]), workload.warmup, 1)
    cli_rng = np.random.default_rng([seed, 2])
    argvs = []
    for k, inst in enumerate(_draw(cli_rng, small_shapes(), 1)[:CLI_CALLS]):
        argvs.append(["run", "--mode", "both", "--d", str(inst.d), "--n", str(inst.n),
                      "--secret", ",".join(map(str, inst.secret)),
                      "--seed", str(int(cli_rng.integers(1 << 16))),
                      "--format", CLI_FORMATS[k % len(CLI_FORMATS)]])
    return Inputs(instances, warmup, argvs, np.random.default_rng([seed, 3]))


def check_quantum(gate: Gate, report, inst: Instance) -> None:
    gate.expect(tuple(report.recovered) == inst.secret,
                f"quantum recovered {report.recovered}, secret {inst.secret}")
    gate.expect(report.oracle_queries == 1, f"quantum used {report.oracle_queries} queries")
    gate.expect(report.peak_probability >= PEAK_FLOOR,
                f"peak probability {report.peak_probability!r} below {PEAK_FLOOR!r}")


def check_classical(gate: Gate, report, inst: Instance) -> None:
    gate.expect(tuple(report.recovered) == inst.secret,
                f"classical recovered {report.recovered}, secret {inst.secret}")
    gate.expect(report.oracle_queries == inst.n,
                f"classical used {report.oracle_queries} queries, n={inst.n}")


def run_op(inst: Instance, gate: Gate, full: bool, draw_rng: np.random.Generator) -> float | None:
    """One gated operation; returns the ``run_quantum_bv`` wall time."""
    solve_s = None
    with gate.operation(f"d={inst.d} n={inst.n} secret={inst.secret}"):
        oracle = quditbv.LinearOracle(inst.secret, inst.d)
        t0 = time.perf_counter()
        report = quditbv.run_quantum_bv(oracle)
        solve_s = time.perf_counter() - t0
        check_quantum(gate, report, inst)
        if not full:
            return solve_s
        check_classical(gate, quditbv.run_classical_bv(quditbv.LinearOracle(inst.secret, inst.d)),
                        inst)
        final = quditbv.quantum_bv_states(quditbv.LinearOracle(inst.secret, inst.d)).final
        if inst.d ** (inst.n + 1) <= DENSE_MAX_AMPS:
            dense = quditbv.dense_reference_bv(inst.secret, inst.d)
            err = float(np.max(np.abs(dense.amplitudes - final.amplitudes)))
            gate.expect(err <= DENSE_TOL, f"strided vs dense differ by {err:.3e}")
        for _ in range(DRAWS):
            drawn = quditbv.measure_register(final, range(1, inst.n + 1), draw_rng).digits
            gate.expect(tuple(drawn) == inst.secret, f"draw {drawn} != secret {inst.secret}")
    return solve_s


@dataclass
class Loop:
    """What one measurement loop saw, per operation and per shape."""

    solve_s: list[float] = field(default_factory=list)
    fastest_solve_s: dict[tuple[int, int], float] = field(default_factory=dict)
    fastest_op_s: dict[tuple[int, int], float] = field(default_factory=dict)
    ops: int = 0
    elapsed: float = 0.0

    def record(self, inst: Instance, solve_s: float | None, op_s: float) -> None:
        shape = (inst.d, inst.n)
        if solve_s is not None:
            self.solve_s.append(solve_s)
            self.fastest_solve_s[shape] = min(solve_s, self.fastest_solve_s.get(shape, solve_s))
        self.fastest_op_s[shape] = min(op_s, self.fastest_op_s.get(shape, op_s))
        self.ops += 1
        self.elapsed += op_s

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.elapsed


def measure(workload: Workload, inputs: Inputs, seconds: float, gate: Gate,
            tracer=None, start_at: int = 0, between: Sequence[Callable[[], object]] = ()) -> Loop:
    """Closed loop, one client: the next operation starts when the last ends.
    At least one operation runs, and none starts that would end after
    ``seconds`` of operations if it took as long as the one before it.

    The calls in ``between`` run one at a time at evenly spaced points of the
    loop's own time, the first before any operation and any left over after
    the last; their time is not the loop's.  So they sample the whole run,
    not one few-second stretch of it."""
    loop = Loop()
    pending = list(between)
    while True:
        while pending and loop.elapsed >= (len(between) - len(pending)) * seconds / len(between):
            pending.pop(0)()
        inst = inputs.instances[(start_at + loop.ops) % len(inputs.instances)]
        op_start = time.perf_counter()
        with tracer.request("op") if tracer else nullcontext():
            solve_s = run_op(inst, gate, workload.full, inputs.draw_rng)
        op_s = time.perf_counter() - op_start
        loop.record(inst, solve_s, op_s)
        if loop.elapsed + op_s > seconds:
            break
    for call in pending:
        call()
    return loop


def warm_up(workload: Workload, inputs: Inputs, gate: Gate) -> None:
    for inst in inputs.warmup:
        run_op(inst, gate, workload.full, inputs.draw_rng)


def selfcheck(gate: Gate, tracer=None) -> float | None:
    """Time one ``run_all_checks()``; every row must pass."""
    elapsed = None
    with gate.operation("run_all_checks"):
        with tracer.request("selfcheck") if tracer else nullcontext():
            t0 = time.perf_counter()
            rows = quditbv.run_all_checks()
            elapsed = time.perf_counter() - t0
        failing = [row.name for row in rows if not row.passed]
        gate.expect(bool(rows) and not failing, f"self-check rows failed: {failing}")
    return elapsed


def cli_call(argv: list[str], gate: Gate, cwd: Path, tracer=None) -> float | None:
    """Time ``python -m quditbv <argv>`` (found through ``PYTHONPATH``) and
    require its stdout to equal an in-process ``quditbv.cli.main(argv)``
    capture byte for byte."""
    elapsed = None
    with gate.operation("cli " + " ".join(argv)):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "quditbv", *argv], capture_output=True,
                              cwd=cwd, timeout=CLI_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        captured = io.StringIO()
        with tracer.request("cli") if tracer else nullcontext():
            with redirect_stdout(captured):
                code = quditbv.cli.main(argv)
        gate.expect(proc.returncode == 0 and code == 0,
                    f"exit codes {proc.returncode} / {code}: {proc.stderr[-300:]!r}")
        gate.expect(proc.stdout == captured.getvalue().encode(),
                    "subprocess stdout differs from the in-process capture")
    return elapsed
