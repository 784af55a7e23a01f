"""Unitary gates on qudit registers.

A gate is a validated :class:`GateMatrix`; its inverse is its
:meth:`GateMatrix.adjoint`.  Its unitarity is checked a block of rows at a
time.  The Fourier gate is symmetric, so :func:`_fourier_columns` builds its
columns and, conjugated, its adjoint's.  A gate keeps the read-only
Kronecker powers that its layers fuse, each budgeted when first built, so a
gate applied again fuses nothing; they live and die with the gate.

Two independent execution routes are provided on purpose:

* :func:`apply_local_gate` and :func:`apply_sum` act on the strided
  amplitude array without ever forming the full operator: a layer of
  single-qudit gates is batched matrix products, one per block of adjacent
  qudits, and SUM is two slice copies per control digit.  The state they
  return adopts its output array without a copy.  A layer writes one output
  register and rewrites it in place; a solver's register is its own output
  (see :class:`~quditbv.state._Register`).  One block function applies
  every block of whole rows and every column chunk of the layer, each
  through a spare block of its own.
  BLAS runs one thread per product while a layer runs, and the layer's
  pieces run on as many threads as BLAS was given instead, so its result
  does not depend on the thread count.
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
from .errors import CapacityError, DomainError, check_int, check_sequence, check_type
from .state import (
    _BLOCK,
    Statevector,
    _one_blas_thread,
    _Owned,
    _Register,
    _check_finite,
    _split,
    _spread,
    check_dimension,
)

TOL_ALGEBRA = 1e-12
DENSE_DIM_LIMIT = 256
# Largest side of a fused layer block: up to it the batched product stays
# memory-bound.  Side 64 would also fuse d=8 pairs, which gained nothing: a
# d=8 layer of 2**24 amplitudes took 0.93-1.02 s fused against 0.87-1.10 s
# unfused (2 vCPUs, OpenBLAS, best of 3).
FUSED_SIDE_LIMIT = 32
# Column chunks of a pass start at multiples of this.  BLAS tiles the
# columns of a product from the first one, and a chunk that starts inside a
# tile rounds differently.  The rule was measured under OpenBLAS's SkylakeX
# kernel: there, chunks that start at multiples of 64 and end in no
# one-column tail match the whole-register product bit for bit.  Under its
# Haswell kernel they do not, and a chunked pass equals the whole-register
# one only to rounding.
_ALIGN = 64


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
    # Fused Kronecker powers of this gate by (side, identity pad), read-only.
    _powers: dict[tuple[int, int], np.ndarray] = field(init=False, repr=False, default_factory=dict)

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
        _check_finite(entries.ravel(order="K"), "gate entries")  # a view: entries are compact
        # U U* - I a block of rows at a time (conjugated, so U.T is a view):
        # the check holds one block, not the whole product.
        rows = max(1, min(side, _BLOCK // side))
        block, worst = np.empty((rows, side), np.complex128), 0.0
        for lo in range(0, side, rows):
            defect = block[: min(rows, side - lo)]
            np.matmul(entries[lo : lo + rows].conj(), entries.T, out=defect)
            defect.reshape(-1)[lo :: side + 1] -= 1  # the identity's entries in these rows
            worst = max(worst, float(np.max(np.abs(defect))))
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


def _fourier_columns(labels: Sequence[int], d: int) -> np.ndarray:
    """The Fourier gate's columns ``labels``, one per row: the one home of its formula."""
    return omega_powers(d)[np.multiply.outer(labels, np.arange(d)) % d] / np.sqrt(d)


def fourier_matrix(d: int) -> GateMatrix:
    """Discrete Fourier gate on a single qudit of dimension ``d``.

    Entries are ``omega**(row*col) / sqrt(d)`` with ``omega = exp(2*pi*i/d)``;
    the inverse gate is ``fourier_matrix(d).adjoint()``.  Exponents are reduced
    mod ``d`` before exponentiation so that large ``row*col`` products cost no
    precision.
    """
    d = check_dimension(d)
    check_capacity(d * d, f"Fourier gate of dimension {d}")
    return GateMatrix(_fourier_columns(np.arange(d), d), d)


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


def _layer_passes(gate: GateMatrix, positions: list[int], k: int) -> list[tuple[np.ndarray, int]]:
    """The ``(matrix, right)`` passes that apply ``gate`` at each of ``positions``.

    Each pass is one batched product over the ``(left, side, right)`` view.
    Two or more distinct positions act on different qudits, so they commute:
    runs of adjacent ones are fused, from the last qudit down, into Kronecker
    powers of side at most ``FUSED_SIDE_LIMIT`` and at most ``isqrt(d**k)``,
    so a fused gate never holds more entries than the register.  The qudits
    after the last listed one join its block as identity when they fit, so
    that pass has ``right == 1``.  Any other call, and any ``d`` whose ``d*d``
    exceeds that side, gives the single-qudit passes in the listed order.
    Each fused power is budgeted and built on the gate's first such layer,
    then kept on the gate, read-only.
    """
    entries, d = gate.entries, gate.d
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
        fused = gate._powers.get((side, pad)) if side > d else entries
        if fused is None:  # two threads may both build it, with the same bits
            check_capacity(side * side, f"fused gate of side {side}")
            fused = entries
            for _ in range(end - first):
                fused = _kron(fused, entries)
            if pad > 1:
                fused = _kron(fused, np.eye(pad))
            fused.flags.writeable = False
            fused = gate._powers.setdefault((side, pad), fused)
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
    to rounding (``TOL_ALGEBRA``).

    The caller's state is left unchanged: the first pass reads its array and
    writes a new output register, which the returned :class:`Statevector`
    adopts, and every later pass rewrites that register in place.  One block
    function applies the passes a block of rows or a chunk of columns at a
    time, each through a spare block of that size (see :func:`_run_passes`).
    A solver's register is rewritten in place from the first pass on and
    returned (see :class:`~quditbv.state._Register`).  Each amplitude takes
    the same products as with whole-register passes, bit for bit under
    OpenBLAS's SkylakeX kernel (see ``_ALIGN``), and the same products at
    every BLAS thread count under any kernel.
    """
    check_type(state, Statevector, "state")
    check_type(gate, GateMatrix, "gate")
    if gate.d != state.d:
        raise DomainError(f"gate dimension {gate.d} does not match state dimension {state.d}")
    if gate.qudit_span != 1:
        raise DomainError(f"apply_local_gate needs a single-qudit gate, got span {gate.qudit_span}")
    k = state.qudit_count
    positions = [_check_position(p, k) for p in (pos, *more)]
    passes = _layer_passes(gate, positions, k)
    in_place = isinstance(state, _Register)
    out = state.amplitudes if in_place else np.empty_like(state.amplitudes)
    _run_passes(passes, state.amplitudes, out)
    return state if in_place else Statevector(_Owned(out), state.d, k)


def _pass(entries: np.ndarray, right: int, src: np.ndarray, dst: np.ndarray) -> None:
    """One batched product of ``entries`` over the ``(left, side, right)`` view, ``src`` into ``dst``."""
    side = entries.shape[0]
    if right == 1:  # one large product beats a batch of side x 1 columns
        np.matmul(src.reshape(-1, side), entries.T, out=dst.reshape(-1, side))
    else:
        np.matmul(entries, src.reshape(-1, side, right), out=dst.reshape(-1, side, right))


def _run_passes(passes: list[tuple[np.ndarray, int]], src: np.ndarray, out: np.ndarray) -> None:
    """Apply ``passes`` in order to ``src``, leaving the result in ``out``.

    A register of one block is one piece; a larger one goes in pieces of
    ``_BLOCK // _SHARES`` amplitudes, whatever the thread count.  One block
    function applies every job ``(key, run)``: a run of consecutive passes
    whose rows ``side*right`` fit in a piece, to one block of whole rows; or
    one longer pass, to one ``_ALIGN``-aligned chunk of the columns of a
    ``(side, right)`` plane.  A job alternates between its block of ``out``
    and a spare block of the same size that it allocates, the first picked
    by the run's parity so that the last pass lands in ``out``; in place, an
    odd run ends with a copy back.  Only the first run reads ``src``, which
    may be ``out`` itself; a single pass from ``src`` into another ``out``
    goes straight there, with no spare block.

    BLAS runs one thread per product while the layer runs, so no product
    depends on its thread count; a run's jobs are spread over as many workers
    as BLAS had threads, at most ``_SHARES`` (see
    :func:`~quditbv.state._spread`), each holding one job's spare block.
    The last of any concurrent layers to return restores the count, also
    when a product raises (see :class:`~quditbv.state._BlasPin`).
    """
    piece, workers = _split(out.size, _BLOCK)  # this module's _BLOCK: a test shrinks it
    rows = [entries.shape[0] * right for entries, right in passes]

    def block(job: tuple) -> None:
        key, run = job
        dst = target[key]
        spare = np.empty(dst.size, dst.dtype) if in_place or len(run) > 1 else None
        x, y = source[key], (spare if in_place or len(run) % 2 == 0 else dst)
        for entries, right in run:
            _pass(entries, right, x, y)
            x, y = y, (dst if y is spare else spare)
        if x is not dst:
            dst[...] = x.reshape(dst.shape)

    with _one_blas_thread:
        i = 0
        while i < len(passes):
            j = i + 1
            if rows[i] <= piece:
                while j < len(passes) and rows[j] <= piece:
                    j += 1
                run, row = passes[i:j], max(rows[i:j])
                step = piece // row * row
                source, target = src, out
                jobs = [(slice(lo, lo + step), run) for lo in range(0, out.size, step)]
            else:
                entries, right = passes[i]
                side = entries.shape[0]
                # A last chunk of one column would take numpy's matrix-vector
                # route, which rounds differently, so the chunk before takes it.
                cols = max(_ALIGN, piece // side // _ALIGN * _ALIGN)
                edges = [*range(0, max(right - 1, 1), cols), right]
                source, target = src.reshape(-1, side, right), out.reshape(-1, side, right)
                jobs = [
                    ((slice(p, p + 1), slice(None), slice(lo, hi)), [(entries, hi - lo)])
                    for p in range(target.shape[0])
                    for lo, hi in zip(edges, edges[1:])
                ]
            in_place = src is out
            _spread(block, jobs, workers)
            src, i = out, j


def apply_sum(state: Statevector, control: int, target: int) -> Statevector:
    """Apply SUM with the given control and target positions (1-based).

    Maps |..i..j..> to |..i..(i+j) mod d..> where i sits at ``control`` and j
    at ``target``.  A pure permutation of amplitudes: each control slice is
    rotated along the target axis by two slice copies, so every output
    amplitude is written exactly once, and no matrix or index array is formed.
    """
    k = check_type(state, Statevector, "state").qudit_count
    control = _check_position(control, k, "control")
    target = _check_position(target, k, "target")
    if control == target:
        raise DomainError("control and target must be distinct")
    d = state.d
    cube = state.amplitudes.reshape((d,) * k)
    out = np.empty_like(cube)
    c, t = control - 1, target - 1
    src: list[slice | int] = [slice(None)] * k
    dst: list[slice | int] = [slice(None)] * k
    for i in range(d):  # under control digit i, target digit j moves to (j + i) mod d
        src[c] = dst[c] = i
        src[t], dst[t] = slice(0, d - i), slice(i, d)
        out[tuple(dst)] = cube[tuple(src)]
        src[t], dst[t] = slice(d - i, d), slice(0, i)
        out[tuple(dst)] = cube[tuple(src)]
    return Statevector(_Owned(out.reshape(-1)), d, k)


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
    try:
        ops = [(gate, positions) for gate, positions in ops]
    except (TypeError, ValueError) as exc:  # not a sequence of pairs
        raise DomainError(f"ops must be a sequence of (gate, positions) pairs: {exc}") from None
    if not ops:
        raise DomainError("dense_operator needs at least one gate")
    d = check_type(ops[0][0], GateMatrix, "gate").d
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
        if check_type(gate, GateMatrix, "gate").d != d:
            raise DomainError(f"mixed gate dimensions {d} and {gate.d}")
        positions = [_check_position(p, k) for p in check_sequence(positions, "gate positions")]
        if gate.qudit_span != len(positions):
            raise DomainError(
                f"gate spans {gate.qudit_span} qudits but got {len(positions)} positions"
            )
        if len(set(positions)) != len(positions):
            raise DomainError(f"gate positions must be distinct, got {positions}")
        total = _lift(gate.entries, positions, d, k) @ total
    return GateMatrix(total, d)
