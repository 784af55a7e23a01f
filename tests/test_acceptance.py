"""Acceptance suite: one test per shipped claim, at the stated tolerance.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and then asserts, so the criterion's status is also one line of ``pytest -v``
output.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from quditbv import (
    LinearOracle,
    all_digit_strings,
    fourier_basis_state,
    gate_equivalence_check,
    gram_check,
    kickback_check,
    kickback_state,
    pipeline_check,
    random_secret,
    root_of_unity_sum,
    run_classical_bv,
    run_quantum_bv,
    tensor,
)
from quditbv.gates import DENSE_DIM_LIMIT

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {criterion}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def cli_environment() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "quditbv", *args],
        capture_output=True,
        env=cli_environment(),
        check=False,
    )


def test_criterion_1_one_query_recovery():
    started = time.perf_counter()
    runs = 0
    ok = True
    for d in range(2, 8):
        for n in range(1, 5):
            if d ** (n + 1) > 4096:
                continue
            if d**n <= 729:
                secrets = list(all_digit_strings(d, n))
            else:
                rng = np.random.default_rng(1000 * d + n)
                secrets = [random_secret(d, n, rng) for _ in range(200)]
            for secret in secrets:
                rep = run_quantum_bv(LinearOracle(secret, d))
                runs += 1
                if not (
                    rep.recovered == secret
                    and rep.oracle_queries == 1
                    and rep.peak_probability >= 1 - 1e-9
                ):
                    ok = False
    elapsed = time.perf_counter() - started
    report(
        1,
        "one-query exact recovery over d=2..7, n=1..4, d^(n+1) <= 4096",
        ok and elapsed < 60.0,
        f"{runs} runs, {elapsed:.1f}s",
    )


def test_criterion_2_classical_baseline_and_sweep():
    ok = True
    rng = np.random.default_rng(424242)
    checked = 0
    for d in (2, 3, 5, 7):
        for n in range(1, 7):
            secret = random_secret(d, n, rng)
            rep = run_classical_bv(LinearOracle(secret, d))
            checked += 1
            if rep.recovered != secret or rep.oracle_queries != n:
                ok = False
    proc = run_cli(["sweep", "--d", "3", "--n", "1..8", "--format", "json"])
    rows = json.loads(proc.stdout.decode()) if proc.returncode == 0 else []
    sweep_ok = (
        proc.returncode == 0
        and [row["n"] for row in rows] == list(range(1, 9))
        and all(row["classical_queries"] == row["n"] for row in rows)
        and all(row["quantum_queries"] == 1 for row in rows)
        and all(row["recovered_match"] is True for row in rows)
    )
    report(
        2,
        "classical solver always n queries; sweep table n=1..8 at d=3",
        ok and sweep_ok,
        f"{checked} library runs, {len(rows)} sweep rows",
    )


def test_criterion_3_orthonormality():
    worst = 0.0
    ok = True
    for d, n in ((2, 1), (2, 2), (3, 2), (5, 2), (2, 4)):
        result = gram_check(d, n)
        worst = max(worst, result.max_abs_error)
        if not result.passed or result.max_abs_error > 1e-9:
            ok = False
    report(3, "Gram matrices of labeled state families equal identity", ok, f"max error {worst:.2e}")


def test_criterion_4_root_of_unity_sums():
    worst = 0.0
    for d in range(2, 17):
        for k in range(0, 3 * d + 1):
            expected = d if k % d == 0 else 0
            worst = max(worst, abs(root_of_unity_sum(d, k) - expected))
    report(4, "direct root-of-unity sums match d * [k divisible by d]", worst <= 1e-12, f"max error {worst:.2e}")


def test_criterion_5_phase_kickback():
    worst = 0.0
    ok = True
    for d in range(2, 9):
        result = kickback_check(d)
        worst = max(worst, result.max_abs_error)
        if not result.passed or result.max_abs_error > 1e-12:
            ok = False
    # d=2 special case: the adder acts as CNOT and flips the sign of |->.
    from quditbv import Statevector, apply_sum

    minus = kickback_state(2).amplitudes
    joint = np.zeros(4, dtype=complex)
    joint[2:] = minus
    flipped = apply_sum(Statevector(joint, 2, 2), 1, 2)
    sign_error = float(np.max(np.abs(flipped.amplitudes + joint)))
    report(
        5,
        "phase kickback exact for d <= 8, including the d=2 sign flip",
        ok and sign_error <= 1e-12,
        f"max error {max(worst, sign_error):.2e}",
    )


def test_criterion_6_post_oracle_factorization():
    worst = 0.0
    cases = 0
    for d in range(2, 17):
        n = 1
        while d ** (n + 1) <= DENSE_DIM_LIMIT:
            ancilla = kickback_state(d)
            pre_query = fourier_basis_state((0,) * n + (d - 1,), d)
            for secret in all_digit_strings(d, n):
                post_oracle = LinearOracle(secret, d).apply_quantum(pre_query)
                expected = tensor(fourier_basis_state(secret, d), ancilla)
                worst = max(
                    worst, float(np.max(np.abs(post_oracle.amplitudes - expected.amplitudes)))
                )
                cases += 1
            n += 1
    report(
        6,
        "post-oracle register factorizes into labeled state and ancilla",
        worst <= 1e-9,
        f"{cases} secrets, max error {worst:.2e}",
    )


def test_criterion_7_dual_route_equivalence():
    worst_gates = 0.0
    gates_ok = True
    for d in (2, 3, 4):
        for k in (1, 2, 3):
            result = gate_equivalence_check(d, k, samples=100)
            worst_gates = max(worst_gates, result.max_abs_error)
            if not result.passed or result.max_abs_error > 1e-12:
                gates_ok = False
    worst_pipeline = 0.0
    pipeline_ok = True
    pairs = 0
    for d in range(2, 17):
        n = 1
        while d ** (n + 1) <= DENSE_DIM_LIMIT:
            result = pipeline_check(d, n)
            worst_pipeline = max(worst_pipeline, result.max_abs_error)
            pairs += 1
            if not result.passed or result.max_abs_error > 1e-10:
                pipeline_ok = False
            n += 1
    report(
        7,
        "strided route matches dense operators and dense pipeline reference",
        gates_ok and pipeline_ok,
        f"gates max {worst_gates:.2e}, pipeline max {worst_pipeline:.2e} over {pairs} (d, n) pairs",
    )


def test_criterion_8_byte_identical_cli_output():
    args = ["run", "--d", "3", "--n", "2", "--secret", "1,2", "--mode", "both", "--seed", "0"]
    outputs = []
    codes = []
    for _ in range(5):
        proc = run_cli(args)
        outputs.append(proc.stdout)
        codes.append(proc.returncode)
    report(
        8,
        "run subcommand output byte-identical across 5 invocations",
        len(set(outputs)) == 1 and codes == [0] * 5 and len(outputs[0]) > 0,
        f"{len(outputs[0])} bytes per invocation",
    )
