"""Unitary gates on qudit registers.

A gate is a validated :class:`GateMatrix`; its inverse is its
:meth:`GateMatrix.adjoint`, so the inverse Fourier gate is
``fourier_matrix(d).adjoint()``.

Two independent execution routes are provided on purpose:

* :func:`apply_local_gate` and :func:`apply_sum` act on the strided
  amplitude array without ever forming the full operator: a layer of
  single-qudit gates is batched matrix products through two scratch buffers,
  one per block of adjacent qudits, and SUM powers are one modular-add pass
  each, :func:`_sum_power`, which the oracle also runs on small registers.
  The state they return adopts the last buffer without a copy.
* :func:`dense_operator` builds the full ``d**k x d**k`` matrix for a gate
  sequence, for cross-checking the strided route on small registers.  Every
  gate, whatever its span, is lifted the same way: a Kronecker product with
  the identity, then a relabeling of the qudit axes.  It shares no code with
  the strided kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .budget import check_capacity
from .errors import CapacityError, DomainError, check_int
from .state import Statevector, _Owned, check_dimension

TOL_ALGEBRA = 1e-12
DENSE_DIM_LIMIT = 256
# Largest side of a fused layer block: up to it the batched product stays
# memory-bound.  Side 64 would also fuse d=8 pairs, which gained nothing: a
# d=8 layer of 2**24 amplitudes took 0.93-1.02 s fused against 0.87-1.10 s
# unfused (2 vCPUs, OpenBLAS, best of 3).
FUSED_SIDE_LIMIT = 32


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """A validated unitary acting on one or more qudits of dimension ``d``.

    The matrix must be square with side ``d**m`` for some ``m >= 1`` and
    unitary to within ``TOL_ALGEBRA`` per entry; construction fails
    otherwise.  ``qudit_span`` holds ``m``.
    """

    entries: np.ndarray
    d: int
    qudit_span: int = field(init=False)

    def __post_init__(self) -> None:
        d = check_dimension(self.d)
        not_complex = "gate entries must be an array of complex numbers"
        try:
            raw = np.asarray(self.entries)  # no copy before the budget check
        except (TypeError, ValueError) as exc:  # ragged rows, for one
            raise DomainError(f"{not_complex}: {exc}") from exc
        shape = raw.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DomainError(f"gate matrix must be square, got shape {shape}")
        side, span, power = shape[0], 0, 1
        while power < side:
            power, span = power * d, span + 1
        if span < 1 or power != side:
            raise DomainError(
                f"gate side {side} is not a positive power of the local dimension {d}"
            )
        check_capacity(side * side, f"gate matrix of side {side}")
        try:
            entries = raw.astype(np.complex128)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{not_complex}: {exc}") from exc
        if not np.all(np.isfinite(entries)):
            raise DomainError("gate entries must be finite")
        defect = entries @ entries.conj().T - np.eye(side)
        worst = float(np.max(np.abs(defect)))
        if worst > TOL_ALGEBRA:
            raise DomainError(
                f"matrix is not unitary: max |U U* - I| entry is {worst:.3e}"
            )
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "qudit_span", span)

    def adjoint(self) -> GateMatrix:
        """The conjugate transpose, validated and budgeted like any other gate."""
        return GateMatrix(self.entries.conj().T, self.d)


def omega_powers(d: int) -> np.ndarray:
    """The d-th roots of unity ``exp(2*pi*i*m/d)`` for ``m = 0..d-1``."""
    check_dimension(d)
    check_capacity(d, "roots of unity")
    return np.exp(2j * np.pi * np.arange(d) / d)


def fourier_matrix(d: int) -> GateMatrix:
    """Discrete Fourier gate on a single qudit of dimension ``d``.

    Entries are ``omega**(row*col) / sqrt(d)`` with ``omega = exp(2*pi*i/d)``;
    the inverse gate is ``fourier_matrix(d).adjoint()``.  Exponents are reduced
    mod ``d`` before exponentiation so that large ``row*col`` products cost no
    precision.
    """
    d = check_dimension(d)
    check_capacity(d * d, f"Fourier gate of dimension {d}")
    grid = np.arange(d)
    exponents = np.outer(grid, grid) % d
    return GateMatrix(omega_powers(d)[exponents] / math.sqrt(d), d)


def sum_matrix(d: int) -> GateMatrix:
    """Two-qudit SUM gate: |i>|j> -> |i>|(i + j) mod d>.

    Row/column indices pair the control digit (most significant) with the
    target digit, matching the register's big-endian convention.
    """
    d = check_dimension(d)
    check_capacity(d**4, f"SUM gate of dimension {d}")
    entries = np.zeros((d * d, d * d), dtype=np.complex128)
    i, j = np.divmod(np.arange(d * d), d)
    entries[i * d + (i + j) % d, i * d + j] = 1.0
    return GateMatrix(entries, d)


def _check_position(pos: int, qudit_count: int, label: str = "position") -> int:
    pos = check_int(pos, label)
    if not 1 <= pos <= qudit_count:
        raise DomainError(f"{label} {pos} is outside 1..{qudit_count}")
    return pos


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by one broadcast multiply; ``np.kron`` costs far more per call."""
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def _layer_passes(entries: np.ndarray, positions: list[int], d: int, k: int) -> list[tuple[np.ndarray, int]]:
    """The ``(matrix, right)`` passes that apply ``entries`` at each of ``positions``.

    Each pass is one batched product over the ``(left, side, right)`` view.
    Two or more distinct positions act on different qudits, so they commute:
    runs of adjacent ones are fused, from the last qudit down, into Kronecker
    powers of side at most ``FUSED_SIDE_LIMIT`` and at most ``isqrt(d**k)``,
    so a fused gate never holds more entries than the register.  The qudits
    after the last listed one join its block as identity when they fit, so
    that pass has ``right == 1``.  Any other call, and any ``d`` whose ``d*d``
    exceeds that side, gives the single-qudit passes in the listed order.
    """
    limit = min(FUSED_SIDE_LIMIT, math.isqrt(d**k))
    if len(positions) < 2 or len(set(positions)) < len(positions) or d * d > limit:
        return [(entries, d ** (k - p)) for p in positions]
    todo = sorted(positions)
    pad = d ** (k - todo[-1])  # identity on the qudits after the last listed one
    if pad * d > limit:
        pad = 1
    passes = []
    while todo:
        end = first = todo.pop()
        side = d * pad
        while todo and todo[-1] == first - 1 and side * d <= limit:
            first, side = todo.pop(), side * d
        fused = entries
        if side > d:
            check_capacity(side * side, f"fused gate of side {side}")
            for _ in range(end - first):
                fused = _kron(fused, entries)
            if pad > 1:
                fused = _kron(fused, np.eye(pad))
        passes.append((fused, d ** (k - end) // pad))
        pad = 1
    return passes


def apply_local_gate(state: Statevector, gate: GateMatrix, pos: int, *more: int) -> Statevector:
    """Apply a single-qudit gate at 1-based position ``pos`` and at each of ``more``.

    A gate at ``pos`` is one batched matrix product over the ``(left, d, right)``
    view, with ``left = d**(pos-1)`` and ``right = d**(k-pos)``; no
    ``d**k x d**k`` matrix is formed.  A call that lists one position, or
    repeats one, applies the gates in the listed order and equals the chain of
    single-position calls exactly.  A call with two or more distinct positions
    is a layer: when ``d*d <= FUSED_SIDE_LIMIT`` and the register holds at
    least ``d**4`` amplitudes, each block of adjacent positions is one product
    of ``G (x) ... (x) G`` (see :func:`_layer_passes`), which equals the chain
    to rounding (``TOL_ALGEBRA``).  Passes alternate between two scratch
    buffers, and the returned :class:`Statevector` adopts the last one.
    """
    if gate.d != state.d:
        raise DomainError(f"gate dimension {gate.d} does not match state dimension {state.d}")
    if gate.qudit_span != 1:
        raise DomainError(f"apply_local_gate needs a single-qudit gate, got span {gate.qudit_span}")
    d, k = state.d, state.qudit_count
    positions = [_check_position(p, k) for p in (pos, *more)]
    amps, spare = state.amplitudes, None
    for entries, right in _layer_passes(gate.entries, positions, d, k):
        side = entries.shape[0]
        out = np.empty_like(amps) if spare is None else spare
        if right == 1:  # one large product beats a batch of side x 1 columns
            np.matmul(amps.reshape(-1, side), entries.T, out=out.reshape(-1, side))
        else:
            np.matmul(entries, amps.reshape(-1, side, right), out=out.reshape(-1, side, right))
        spare, amps = (amps if amps.flags.writeable else None), out  # not the caller's array
    return Statevector(_Owned(amps), d, k)


def _sum_power(cube: np.ndarray, out: np.ndarray, control_ax: int, target_ax: int, m: int) -> None:
    """Write SUM**m of a raw ``(d,)*k`` amplitude array into ``out``.

    Target digit ``j`` under control digit ``i`` moves to ``(j + m*i) mod d``.
    Each control slice is rotated along the target axis by two slice copies,
    so every output amplitude is written exactly once and no index array is
    formed.  ``out`` must not overlap ``cube``.
    """
    d = cube.shape[control_ax]
    src: list[slice | int] = [slice(None)] * cube.ndim
    dst: list[slice | int] = [slice(None)] * cube.ndim
    for i in range(d):
        src[control_ax] = dst[control_ax] = i
        shift = (m * i) % d
        src[target_ax], dst[target_ax] = slice(0, d - shift), slice(shift, d)
        out[tuple(dst)] = cube[tuple(src)]
        src[target_ax], dst[target_ax] = slice(d - shift, d), slice(0, shift)
        out[tuple(dst)] = cube[tuple(src)]


def apply_sum(state: Statevector, control: int, target: int) -> Statevector:
    """Apply SUM with the given control and target positions (1-based).

    Maps |..i..j..> to |..i..(i+j) mod d..> where i sits at ``control`` and j
    at ``target``.  Implemented as a pure index permutation by
    :func:`_sum_power`; no matrix is ever formed.
    """
    k = state.qudit_count
    control = _check_position(control, k, "control")
    target = _check_position(target, k, "target")
    if control == target:
        raise DomainError("control and target must be distinct")
    d = state.d
    cube = state.amplitudes.reshape((d,) * k)
    out = np.empty_like(state.amplitudes)
    _sum_power(cube, out.reshape(cube.shape), control - 1, target - 1, 1)
    return Statevector(_Owned(out), d, k)


def _lift(entries: np.ndarray, positions: Sequence[int], d: int, k: int) -> np.ndarray:
    """Lift a gate on the listed 1-based ``positions`` to the whole register."""
    # Kronecker order: the listed qudits first, the others after them.
    order = [p - 1 for p in positions] + [q for q in range(k) if q + 1 not in positions]
    back = [order.index(q) for q in range(k)]  # where register qudit q sits
    lifted = np.kron(entries, np.eye(d ** (k - len(positions)))).reshape((d,) * (2 * k))
    return lifted.transpose(back + [k + a for a in back]).reshape(d**k, d**k)


def dense_operator(ops: Sequence[tuple[GateMatrix, Sequence[int]]], qudit_count: int) -> GateMatrix:
    """Full-register matrix for a gate sequence, for cross-checking only.

    ``ops`` lists ``(gate, positions)`` pairs applied left to right (the first
    listed gate acts on the state first).  A gate of any span is lifted as
    ``gate (x) identity``, which acts on its listed qudits first and on the
    others after them, followed by one relabeling of the qudit axes back into
    register order.  Refuses registers with more than ``DENSE_DIM_LIMIT``
    amplitudes.
    """
    if not ops:
        raise DomainError("dense_operator needs at least one gate")
    d = ops[0][0].d
    k = check_int(qudit_count, "qudit_count", minimum=1)
    dim = d**k
    if dim > DENSE_DIM_LIMIT:
        raise CapacityError(
            f"dense operator on {k} qudits of dimension {d} needs {dim}x{dim} entries, "
            f"above the limit of {DENSE_DIM_LIMIT}x{DENSE_DIM_LIMIT}"
        )
    check_capacity(dim * dim, "dense operator")
    total = np.eye(dim, dtype=np.complex128)
    for gate, positions in ops:
        if gate.d != d:
            raise DomainError(f"mixed gate dimensions {d} and {gate.d}")
        positions = [_check_position(p, k) for p in positions]
        if gate.qudit_span != len(positions):
            raise DomainError(
                f"gate spans {gate.qudit_span} qudits but got {len(positions)} positions"
            )
        if len(set(positions)) != len(positions):
            raise DomainError(f"gate positions must be distinct, got {positions}")
        total = _lift(gate.entries, positions, d, k) @ total
    return GateMatrix(total, d)
