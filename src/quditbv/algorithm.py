"""One-query quantum and n-query classical solvers for the hidden string.

The quantum pipeline, for an oracle on ``n`` input qudits of dimension ``d``:

1. start in |0...0>|d-1>;
2. apply the forward Fourier gate to every qudit (the last qudit becomes the
   phase-kickback state): the result is the Fourier basis state labeled
   ``0...0, d-1``, built directly as a product of Fourier columns;
3. query the oracle once, which multiplies each input branch |x> by the
   phase ``omega**f(x)``;
4. apply the inverse Fourier gate to the first ``n`` qudits, collapsing the
   input register exactly onto the secret string.

Readout on the acceptance path is the argmax of the input-register
probabilities, guarded so the peak must carry essentially all of the weight;
:func:`measure_register` offers seeded sampling from the same distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .budget import check_capacity
from .errors import ConsistencyError, DomainError
from .gates import _check_position, apply_local_gate, fourier_matrix, omega_powers
from .oracle import LinearOracle
from .state import Statevector, _Owned, decode_index, validate_digits

TOL_STATE = 1e-9
PEAK_PROBABILITY_FLOOR = 1.0 - TOL_STATE


@dataclass(frozen=True)
class MeasurementOutcome:
    """One sampled readout: the observed digits and their exact probability."""

    digits: tuple[int, ...]
    probability: float


@dataclass(frozen=True)
class RunReport:
    """Outcome record of one solver run."""

    mode: str
    d: int
    n: int
    recovered: tuple[int, ...]
    oracle_queries: int
    peak_probability: float


@dataclass(frozen=True)
class QuantumTrace:
    """The states the query and the inverse layer make, for inspection and checks."""

    post_oracle: Statevector
    final: Statevector


def kickback_state(d: int) -> Statevector:
    """Single-qudit state whose oracle target kicks phases back to the input.

    The Fourier gate's last column, the Fourier basis state labeled ``d-1``;
    adding ``c`` to it modulo ``d`` multiplies it by ``exp(2*pi*i*c/d)``.
    """
    return fourier_basis_state((d - 1,), d)


def fourier_basis_state(s: Sequence[int], d: int) -> Statevector:
    """The n-qudit Fourier basis state labeled ``s``.

    Amplitude of |x> is ``omega**((s . x) mod d) / sqrt(d**n)``: the product of
    the Fourier gate's columns ``s_1 ... s_n`` (bit for bit those of
    :func:`fourier_matrix`), one broadcast multiply per qudit.  These states
    are exactly orthonormal; the pipeline starts from the one labeled
    ``0...0, d-1`` and maps the secret onto ``s`` before its inverse readout.
    """
    s = validate_digits(s, d)
    check_capacity(d ** len(s), "Fourier basis state")
    columns = omega_powers(d)[np.multiply.outer(s, np.arange(d)) % d] / np.sqrt(d)
    amps = columns[0]
    for column in columns[1:]:
        amps = (amps[:, None] * column).reshape(-1)
    return Statevector(_Owned(amps), d, len(s))


def quantum_bv_states(oracle: LinearOracle) -> QuantumTrace:
    """Run the quantum pipeline once and keep the states from the query on.

    Applies the oracle exactly once and one gate layer.  The pre-query state,
    ``fourier_basis_state((0,) * n + (d - 1,), d)``, is not kept.  Raises a
    capacity error before allocating if ``d**(n+1)`` exceeds the amplitude budget.
    """
    d, n = oracle.d, oracle.n
    check_capacity(d ** (n + 1), "pipeline register")
    post_oracle = oracle.apply_quantum(fourier_basis_state((0,) * n + (d - 1,), d))
    final = apply_local_gate(post_oracle, fourier_matrix(d).adjoint(), *range(1, n + 1))
    return QuantumTrace(post_oracle, final)


def marginal_probabilities(state: Statevector, qudits: Sequence[int]) -> np.ndarray:
    """Outcome probabilities for the given qudits, tracing out the rest.

    The result is indexed by the big-endian encoding of the kept digits in
    the order given.  Raises a consistency error if the state's total
    probability strays from 1 beyond ``TOL_STATE``.
    """
    k = state.qudit_count
    kept = [_check_position(q, k, "qudit position") for q in qudits]
    if not kept:
        raise DomainError("at least one qudit must be kept")
    if len(set(kept)) != len(kept):
        raise DomainError(f"duplicate qudit positions in {kept}")
    probs = np.abs(state.amplitudes) ** 2
    total = float(probs.sum())
    if abs(total - 1.0) > TOL_STATE:
        raise ConsistencyError(
            f"state probabilities sum to {total!r}, not 1 within {TOL_STATE}"
        )
    d = state.d
    keep_axes = [q - 1 for q in kept]
    other_axes = [ax for ax in range(k) if ax not in keep_axes]
    cube = probs.reshape((d,) * k)
    ordered = np.transpose(cube, axes=keep_axes + other_axes)
    return ordered.reshape(d ** len(kept), -1).sum(axis=1)


def measure_register(
    state: Statevector, qudits: Sequence[int], rng: np.random.Generator
) -> MeasurementOutcome:
    """Sample a readout of the given qudits by inverse-CDF over basis order.

    Deterministic for a given generator state: one uniform draw is placed in
    the cumulative distribution over ascending basis indices.
    """
    qudits = tuple(qudits)
    probs = marginal_probabilities(state, qudits)
    cdf = np.cumsum(probs)
    cdf[-1] = max(cdf[-1], 1.0)
    index = int(np.searchsorted(cdf, rng.random(), side="right"))
    index = min(index, probs.size - 1)
    digits = decode_index(index, state.d, len(qudits))
    return MeasurementOutcome(digits, float(min(probs[index], 1.0)))


def run_quantum_bv(oracle: LinearOracle, seed: int = 0) -> RunReport:
    """Recover the hidden string with a single oracle query.

    The readout takes the argmax of the input-register probabilities and
    fails loudly if that peak does not carry essentially all of the weight,
    so a wrong-but-confident answer cannot slip through.  The oracle's
    counter, not an assumption, supplies the reported query count.  The
    pipeline draws nothing at random: ``seed`` is ignored and accepted only
    so that callers passing it positionally keep working.
    """
    queries_before = oracle.query_count
    trace = quantum_bv_states(oracle)
    probs = marginal_probabilities(trace.final, range(1, oracle.n + 1))
    peak_index = int(np.argmax(probs))
    peak = float(min(probs[peak_index], 1.0))
    if peak < PEAK_PROBABILITY_FLOOR:
        raise ConsistencyError(
            f"readout peak probability {peak!r} fell below {PEAK_PROBABILITY_FLOOR!r}; "
            "the pipeline no longer concentrates on a single string"
        )
    recovered = decode_index(peak_index, oracle.d, oracle.n)
    return RunReport(
        mode="quantum",
        d=oracle.d,
        n=oracle.n,
        recovered=recovered,
        oracle_queries=oracle.query_count - queries_before,
        peak_probability=peak,
    )


def run_classical_bv(oracle: LinearOracle) -> RunReport:
    """Recover the hidden string with ``n`` classical unit-string queries.

    Querying the i-th unit string returns ``(s . e_i) mod d = s_i`` directly,
    so the recovered digits are exact and the peak probability is 1.
    """
    queries_before = oracle.query_count
    n = oracle.n
    recovered = []
    for i in range(n):
        probe = tuple(1 if j == i else 0 for j in range(n))
        recovered.append(oracle.eval_classical(probe))
    return RunReport(
        mode="classical",
        d=oracle.d,
        n=n,
        recovered=tuple(recovered),
        oracle_queries=oracle.query_count - queries_before,
        peak_probability=1.0,
    )
