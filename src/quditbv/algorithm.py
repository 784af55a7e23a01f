"""One-query quantum and n-query classical solvers for the hidden string.

The quantum pipeline, for an oracle on ``n`` input qudits of dimension ``d``:

1. start in |0...0>|d-1>;
2. apply the forward Fourier gate to every qudit (the last qudit becomes the
   phase-kickback state): the result is the Fourier basis state labeled
   ``0...0, d-1``, whose every row is the same scaled kickback row.  It is
   never built: the query below writes its image from that row;
3. query the oracle once, which multiplies each input branch |x> by the
   phase ``omega**f(x)``: row ``x`` is the kickback row rotated by ``f(x)``;
4. apply the inverse Fourier gate (the conjugated columns) to the first ``n``
   qudits, collapsing the input register exactly onto the secret string.

Readout on the acceptance path is the argmax of the input-register
probabilities, guarded so the peak must carry essentially all of the weight;
:func:`measure_register` offers seeded sampling from the same distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .budget import check_capacity
from .errors import ConsistencyError, DomainError, check_sequence, check_type
from .gates import GateMatrix, _check_position, _fourier_columns, apply_local_gate
from .oracle import LinearOracle
from .state import _BLOCK, Statevector, _Owned, _Register, _split, _spread, decode_index, validate_digits

TOL_STATE = 1e-9
PEAK_PROBABILITY_FLOOR = 1.0 - TOL_STATE
# Rows of fewer digits than this are swept strided: the readout's row sums
# make one call per digit of a row, each over every row of a block, rather
# than one broadcast call whose inner loop is one row.  Strided, the readout
# took 0.032 s at d=2, n=22 against 0.079 s broadcast, and 0.016 s at d=7,
# n=7 against 0.022 s (2 vCPUs, median of 3 best-of-2).  From d=8 on,
# numpy's pairwise sum adds a row in another order than the strided sums,
# so the readout's bits differ.
_SHORT_ROW = 8


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
    """The state the pipeline ends in, for inspection and checks.

    ``final`` is the solve's one register, handed on read-only once the
    inverse layer has rewritten it; no earlier state of the pipeline is
    kept.  The pre-query state is never built: the query writes the
    register from the kickback row, bit for bit the amplitudes of
    ``oracle.apply_quantum(fourier_basis_state((0,) * n + (d - 1,), d))``,
    and the layer applied to those gives ``final``.
    """

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
    :func:`fourier_matrix`) by one broadcast multiply per column, left to
    right, with leading zeros tiled (see :func:`_fourier_product`).  These
    states are exactly orthonormal; the pipeline starts from the one labeled
    ``0...0, d-1`` and maps the secret onto ``s`` before its inverse readout.
    """
    s = validate_digits(s, d)
    check_capacity(d ** len(s), "Fourier basis state")
    return Statevector(_Owned(_fourier_product(s, d)), d, len(s))


def _fourier_product(s: tuple[int, ...], d: int) -> np.ndarray:
    """The amplitudes of :func:`fourier_basis_state`, as a new array, unbudgeted.

    Leading zeros have the constant column ``1/sqrt(d)``: their product scales
    the next column, and the rest's product is tiled, with the same bits.
    """
    zeros = next((i for i, digit in enumerate(s[:-1]) if digit), len(s) - 1)
    columns = _fourier_columns(s[zeros:], d)
    amps = columns[0] * math.prod([1 / np.sqrt(d)] * zeros) if zeros else columns[0]
    for column in columns[1:]:
        amps = (amps[:, None] * column).reshape(-1)
    return np.repeat(amps[None], d**zeros, axis=0).reshape(-1) if zeros else amps


@lru_cache(maxsize=16)
def _inverse_fourier(d: int) -> GateMatrix:
    """The inverse Fourier gate, the conjugated Fourier columns, validated.

    Kept per ``d`` for the solve while ``d * d <= _BLOCK``, so at most 16
    gates of 1 MiB; the solve builds a larger one through ``__wrapped__``.
    """
    return GateMatrix(_fourier_columns(np.arange(d), d).conj(), d)


def quantum_bv_states(oracle: LinearOracle) -> QuantumTrace:
    """Run the quantum pipeline once and keep the state it ends in.

    Applies the oracle exactly once and one gate layer, both to one
    :class:`~quditbv.state._Register` (see there), whose every row before
    the query would be the kickback row scaled by ``1/sqrt(d**n)``.  The
    trace hands it on as a read-only ``final``.  Raises a capacity error
    before allocating if ``d**(n+1)`` is over budget.

    The layer's gate, the inverse Fourier gate, is built and validated once
    per ``d`` up to 256 and kept, with the fused powers its layers make;
    above 256 each solve builds it.  The kickback row is that gate's last
    row, conjugated: bit for bit the Fourier gate's last column.

    The query and the layer sweep a register of more than one block in fixed
    pieces, on as many threads as numpy's BLAS is given (at most
    ``_SHARES``); ``final`` is the same, bit for bit, at every thread count.
    """
    check_type(oracle, LinearOracle, "oracle")
    d, n = oracle.d, oracle.n
    check_capacity(d ** (n + 1), "pipeline register")
    inverse = (_inverse_fourier if d * d <= _BLOCK else _inverse_fourier.__wrapped__)(d)
    row = inverse.entries[d - 1].conj() * math.prod([1 / np.sqrt(d)] * n)
    register = oracle.apply_quantum(_Register(np.empty(d ** (n + 1), np.complex128), d, n + 1, row))
    register = apply_local_gate(register, inverse, *range(1, n + 1))
    return QuantumTrace(Statevector(_Owned(register.amplitudes), d, n + 1))


def marginal_probabilities(state: Statevector, qudits: Sequence[int]) -> np.ndarray:
    """Outcome probabilities for the given qudits, tracing out the rest.

    The result is indexed by the big-endian encoding of the kept digits in
    the order given.  Raises a consistency error if the state's total
    probability strays from 1 beyond ``TOL_STATE``.

    When the kept qudits open with ``1, 2, ..., t`` in that order, each value
    of those ``t`` digits owns a contiguous run of the result, so the state is
    squared and summed a block of those rows at a time, and no ``|psi|^2`` of
    the whole register is formed; the blocks of a large state run on
    separate threads.  Otherwise the block is the whole state.  When the
    kept qudits are all but the last and ``d`` is below ``_SHORT_ROW``, each
    outcome is the sum of a row of ``d`` squares, and a block's rows are
    summed as its strided columns, ``sq[0::d] + sq[1::d] + ...`` in order:
    the same adds, in the same order, as a row-wise reduce at that ``d``.
    """
    k = check_type(state, Statevector, "state").qudit_count
    kept = [_check_position(q, k, "qudit position") for q in check_sequence(qudits, "qudit positions")]
    if not kept:
        raise DomainError("at least one qudit must be kept")
    if len(set(kept)) != len(kept):
        raise DomainError(f"duplicate qudit positions in {kept}")
    d = state.d
    keep_axes = [q - 1 for q in kept]
    lead = 0  # the kept qudits open with 1..lead
    while lead < len(kept) and keep_axes[lead] == lead:
        lead += 1
    # Axis 0 of a block runs over its rows, one per value of the leading
    # digits; the other kept qudits follow in the order given, then the rest.
    rest = keep_axes[lead:] + [ax for ax in range(lead, k) if ax not in keep_axes]
    order = [0] + [ax + 1 - lead for ax in rest]
    shape = (-1,) + (d,) * (k - lead)
    row, width = d ** (k - lead), d ** (k - len(kept))  # amplitudes per row, per outcome
    amps = state.amplitudes
    piece, workers = _split(amps.size)
    step = max(1, piece // row) * row
    probs = np.empty(amps.size // width)
    strided = lead == k - 1 and d < _SHORT_ROW  # each outcome sums one row of d

    def reduce(lo: int) -> None:
        block = np.abs(amps[lo : lo + step]) ** 2
        sums = probs[lo // width : (lo + step) // width]
        if strided:
            np.add(block[0::d], block[1::d], out=sums)
            for j in range(2, d):
                np.add(sums, block[j::d], out=sums)
        else:
            block = block.reshape(shape).transpose(order)
            np.add.reduce(block.reshape(-1, width), axis=1, out=sums)

    _spread(reduce, range(0, amps.size, step), workers if step <= piece else 1)
    total = float(np.add.reduce(probs))
    if not abs(total - 1.0) <= TOL_STATE:
        raise ConsistencyError(
            f"state probabilities sum to {total!r}, not 1 within {TOL_STATE}"
        )
    return probs


def measure_register(
    state: Statevector, qudits: Sequence[int], rng: np.random.Generator
) -> MeasurementOutcome:
    """Sample a readout of the given qudits by inverse-CDF over basis order.

    Deterministic for a given generator state: one uniform draw is placed in
    the cumulative distribution over ascending basis indices.
    """
    check_type(rng, np.random.Generator, "rng")
    qudits = check_sequence(qudits, "qudit positions")
    probs = marginal_probabilities(state, qudits)
    cdf = np.cumsum(probs)
    cdf[-1] = max(cdf[-1], 1.0)  # so a draw, always below 1, picks an index below probs.size
    index = int(np.searchsorted(cdf, rng.random(), side="right"))
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
    queries_before = check_type(oracle, LinearOracle, "oracle").query_count
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
    queries_before = check_type(oracle, LinearOracle, "oracle").query_count
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
