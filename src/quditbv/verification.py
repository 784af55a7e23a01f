"""Independent reference computations and numeric self-checks.

Everything here cross-checks the fast strided pipeline against a second,
deliberately naive route: direct summation, explicit Gram matrices, and a
dense full-register circuit matrix.  The reference route must stay
independent of the strided one, so none of these helpers reuse
``apply_local_gate`` or ``apply_sum`` to produce their expected values.

All checks are deterministic: identical inputs produce identical errors on
repeated calls in a single-threaded process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algorithm import TOL_STATE, fourier_basis_state, quantum_bv_states
from .errors import CapacityError, check_int
from .gates import (
    DENSE_DIM_LIMIT,
    TOL_ALGEBRA,
    GateMatrix,
    apply_local_gate,
    apply_sum,
    dense_operator,
    fourier_matrix,
    sum_matrix,
)
from .oracle import LinearOracle
from .state import (
    Statevector,
    all_digit_strings,
    check_dimension,
    encode_digits,
    validate_digits,
)

TOL_PIPELINE = 1e-10

GRAM_SIZE_LIMIT = 625


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one numeric self-check."""

    name: str
    max_abs_error: float
    passed: bool
    details: str


def root_of_unity_sum(d: int, k: int) -> complex:
    """Direct summation of ``sum_a exp(2*pi*i*a*k/d)`` for ``a = 0..d-1``.

    No closed form and no exponent reduction: each term is exponentiated on
    its raw angle and the terms are added in order, so this is an honest
    independent witness for the identity that the sum equals ``d`` when
    ``k % d == 0`` and vanishes otherwise.
    """
    check_dimension(d)
    check_int(k, "exponent k", minimum=0)
    total = 0j
    for a in range(d):
        total += complex(np.exp(2j * np.pi * a * k / d))
    return total


def root_of_unity_check(max_d: int = 16) -> CheckResult:
    """Compare the direct sums against ``d * (k % d == 0)`` for k up to 3d."""
    max_d = check_int(max_d, "max_d", minimum=2)
    worst = 0.0
    cases = 0
    for d in range(2, max_d + 1):
        for k in range(0, 3 * d + 1):
            expected = d if k % d == 0 else 0
            worst = max(worst, abs(root_of_unity_sum(d, k) - expected))
            cases += 1
    return CheckResult(
        name=f"root-of-unity sums d<={max_d}, k<=3d",
        max_abs_error=worst,
        passed=worst <= TOL_ALGEBRA,
        details=f"{cases} (d, k) pairs against the d * [k divisible by d] rule",
    )


def gram_check(d: int, n: int) -> CheckResult:
    """Gram matrix of all ``d**n`` labeled Fourier states against the identity."""
    check_dimension(d)
    n = check_int(n, "register size", minimum=1)
    count = d**n
    if count > GRAM_SIZE_LIMIT:
        raise CapacityError(
            f"gram check over {count} states exceeds the limit of {GRAM_SIZE_LIMIT}"
        )
    rows = np.empty((count, count), dtype=np.complex128)
    for row, label in enumerate(all_digit_strings(d, n)):
        rows[row] = fourier_basis_state(label, d).amplitudes
    gram = rows.conj() @ rows.T
    worst = float(np.max(np.abs(gram - np.eye(count))))
    return CheckResult(
        name=f"orthonormality of labeled states d={d}, n={n}",
        max_abs_error=worst,
        passed=worst <= TOL_STATE,
        details=f"{count}x{count} Gram matrix against the identity",
    )


def kickback_check(d: int) -> CheckResult:
    """Verify the phase kicked back by SUM onto each control digit.

    The special target state is written out directly (no gate code), SUM adds
    the control digit into it, and the result must equal the input times
    ``exp(2*pi*i*c/d)`` for control digit ``c``.
    """
    d = check_dimension(d)
    phi = np.exp(-2j * np.pi * np.arange(d) / d) / np.sqrt(d)
    worst = 0.0
    for control_digit in range(d):
        joint = np.zeros(d * d, dtype=np.complex128)
        joint[control_digit * d : (control_digit + 1) * d] = phi
        before = Statevector(joint, d, 2)
        after = apply_sum(before, control=1, target=2)
        expected = np.exp(2j * np.pi * control_digit / d) * joint
        worst = max(worst, float(np.max(np.abs(after.amplitudes - expected))))
    return CheckResult(
        name=f"phase kickback d={d}",
        max_abs_error=worst,
        passed=worst <= TOL_ALGEBRA,
        details=f"all {d} control digits against the expected phase",
    )


@lru_cache(maxsize=None)
def _dense_bv_layers(d: int, n: int) -> tuple[GateMatrix, GateMatrix]:
    """Dense Fourier spread and inverse-readout layers for an (n+1)-qudit run."""
    forward = fourier_matrix(d)
    inverse = forward.adjoint()
    spread = dense_operator([(forward, (p,)) for p in range(1, n + 2)], n + 1)
    readout = dense_operator([(inverse, (p,)) for p in range(1, n + 1)], n + 1)
    return spread, readout


def dense_reference_bv(secret: Sequence[int], d: int) -> Statevector:
    """Final pipeline state computed through full dense matrices only.

    Builds the Fourier spread and readout layers with ``dense_operator`` and
    the oracle as an explicit permutation matrix over all basis states, then
    applies the three matrices to the initial vector in turn.  Shares no code
    with the strided route and with ``LinearOracle``.  ``dense_operator``
    refuses registers above ``DENSE_DIM_LIMIT`` before anything large is built.
    """
    secret = validate_digits(secret, d)
    n = len(secret)
    size = d ** (n + 1)
    spread, readout = _dense_bv_layers(d, n)
    # Every basis column splits into its input index and target digit; the
    # input's big-endian digits give f, which moves the target row.
    inputs, target = np.divmod(np.arange(size), d)
    digits = inputs[:, None] // d ** np.arange(n - 1, -1, -1) % d
    rows = inputs * d + (target + digits @ np.array(secret)) % d
    oracle_matrix = np.zeros((size, size), dtype=np.complex128)
    oracle_matrix[rows, np.arange(size)] = 1.0
    initial = np.zeros(size, dtype=np.complex128)
    initial[encode_digits((0,) * n + (d - 1,), d)] = 1.0
    return Statevector(readout.entries @ (oracle_matrix @ (spread.entries @ initial)), d, n + 1)


def pipeline_check(d: int, n: int) -> CheckResult:
    """Strided pipeline against the dense reference, over every secret."""
    check_dimension(d)
    worst = 0.0
    count = 0
    for secret in all_digit_strings(d, n):
        dense = dense_reference_bv(secret, d)
        trace = quantum_bv_states(LinearOracle(secret, d))
        worst = max(worst, float(np.max(np.abs(dense.amplitudes - trace.final.amplitudes))))
        count += 1
    return CheckResult(
        name=f"strided vs dense pipeline d={d}, n={n}",
        max_abs_error=worst,
        passed=worst <= TOL_PIPELINE,
        details=f"all {count} secrets, full {d ** (n + 1)}-amplitude final states",
    )


def _random_unitary(d: int, rng: np.random.Generator) -> GateMatrix:
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(raw)
    return GateMatrix(q, d)


def gate_equivalence_check(
    d: int, qudit_count: int, samples: int = 100, seed: int = 7
) -> CheckResult:
    """Strided gate application against dense operator products.

    Each sample draws a random normalized state and a small random circuit
    (one random single-qudit unitary per position, plus a SUM pair when the
    register allows), applies it along both routes, and compares amplitudes.
    """
    d = check_dimension(d)
    k = check_int(qudit_count, "qudit_count", minimum=1)
    samples = check_int(samples, "samples", minimum=1)
    seed = check_int(seed, "seed", minimum=0)
    dim = d**k
    if dim > DENSE_DIM_LIMIT:
        raise CapacityError(f"gate equivalence check needs dim <= {DENSE_DIM_LIMIT}, got {dim}")
    rng = np.random.default_rng(seed)
    adder = sum_matrix(d)
    worst = 0.0
    for _ in range(samples):
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = Statevector(raw / np.linalg.norm(raw), d, k)
        ops: list[tuple[GateMatrix, tuple[int, ...]]] = []
        strided = state
        for pos in rng.permutation(k) + 1:
            gate = _random_unitary(d, rng)
            ops.append((gate, (int(pos),)))
            strided = apply_local_gate(strided, gate, int(pos))
        if k >= 2:
            control, target = (int(p) for p in rng.permutation(k)[:2] + 1)
            ops.append((adder, (control, target)))
            strided = apply_sum(strided, control, target)
        dense = dense_operator(ops, k)
        expected = dense.entries @ state.amplitudes
        worst = max(worst, float(np.max(np.abs(strided.amplitudes - expected))))
    return CheckResult(
        name=f"strided vs dense gates d={d}, k={k}",
        max_abs_error=worst,
        passed=worst <= TOL_ALGEBRA,
        details=f"{samples} random states and circuits, seed {seed}",
    )


def run_all_checks() -> list[CheckResult]:
    """Run the full battery of self-checks and return one row per check."""
    results = [root_of_unity_check(max_d=16)]
    for d, n in ((2, 1), (2, 2), (3, 2), (5, 2), (2, 4)):
        results.append(gram_check(d, n))
    for d in range(2, 9):
        results.append(kickback_check(d))
    for d in range(2, 17):
        n = 1
        while d ** (n + 1) <= DENSE_DIM_LIMIT:
            results.append(pipeline_check(d, n))
            n += 1
    for d in (2, 3, 4):
        for k in (1, 2, 3):
            results.append(gate_equivalence_check(d, k))
    return results
