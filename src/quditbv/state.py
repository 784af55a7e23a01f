"""Dense statevectors for registers of d-level systems.

Conventions used throughout the package:

* A register of ``k`` qudits with local dimension ``d`` is a dense array of
  ``d**k`` complex amplitudes.
* Indexing is big-endian: qudit 1 is the most significant base-d digit of the
  flat array index, qudit ``k`` the least significant.
* Qudit positions are 1-based everywhere in the public API.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from collections.abc import Callable
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .budget import check_capacity
from .errors import DomainError, check_int, check_sequence, check_type

# Amplitudes a blocked pass over a register handles at a time: 1 MiB, so a
# block stays in cache while it is worked on.  Blocks of 2**15 to 2**18 ran
# the inverse layer of a 2**24-amplitude solve within noise of each other;
# 2**14 was 13% slower at d=2, n=22 and 19% at d=256, n=2 (2 vCPUs, 2 MiB L2
# per core, best of 3).
_BLOCK = 1 << 16
# A sweep over more than one block goes in pieces of 1/_SHARES of a block,
# whatever the thread count, so every product a piece makes, and so every
# amplitude, is the same however many workers run.  At most _SHARES workers
# run, each holding the temporaries of one piece, or of one layer chunk when
# a chunk is wider.  Pieces of a quarter block ran the solve at d=2, n=22 in
# 0.49-0.53 s and at d=16, n=5 in 0.62-0.72 s, against 0.46-0.50 and
# 0.58-0.61 s with halves (2 vCPUs, best of 2, 3 processes).
_SHARES = 2


def _split(size: int, block: int = _BLOCK) -> tuple[int, int]:
    """The piece length and the worker count for a sweep over ``size`` entries.

    Up to ``block`` entries are one piece for one worker.  More go in pieces
    of ``block // _SHARES``, over as many workers as numpy's BLAS has
    threads, at most ``_SHARES``.  Each worker holds the temporaries of one
    piece, or of one layer chunk when a chunk is wider.
    """
    if size <= block:
        return block, 1
    return block // _SHARES, min(_blas_threads(), _SHARES)


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS that numpy calls, or ``None``.

    They are looked up through numpy's own extension module, whose symbol
    scope holds the scipy-openblas library it is linked against; a numpy
    built on another BLAS has no such symbols.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _blas_threads() -> int:
    """numpy's OpenBLAS thread count, the workers a sweep may use; 1 without scipy-openblas."""
    blas = _openblas()
    return 1 if blas is None else blas[0]()


class _BlasPin:
    """Holds numpy's OpenBLAS at one thread while any layer runs, in any thread.

    ``with _one_blas_thread:`` enters it.  The first layer to enter saves
    the library's thread count and sets 1; the last to leave restores the
    count, also when its block raises.  So concurrent layers cannot restore
    each other's pin and leave BLAS at one thread.  Without scipy-openblas
    there is no count to hold.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0  # layers inside
        self._saved = 1

    def __enter__(self) -> None:
        blas = _openblas()
        with self._lock:
            if blas is not None and not self._depth:
                self._saved = blas[0]()
                blas[1](1)
            self._depth += 1

    def __exit__(self, *exc: object) -> None:
        blas = _openblas()
        with self._lock:
            self._depth -= 1
            if blas is not None and not self._depth:
                blas[1](self._saved)


_one_blas_thread = _BlasPin()


def _spread(run: Callable[[object], None], jobs: Sequence, workers: int) -> None:
    """Call ``run(job)`` once for each of ``jobs``, on up to ``workers`` threads.

    Jobs must write disjoint entries.  Threads start only when each worker
    gets at least two jobs; otherwise the jobs run here, in order.  The first
    exception a job raises is raised here once every worker has stopped.
    """
    if workers < 2 or len(jobs) < 2 * workers:
        for job in jobs:
            run(job)
        return
    todo = iter(jobs)  # shared: each next() hands one job to one worker
    errors: list[BaseException] = []

    def work() -> None:
        try:
            for job in todo:
                run(job)
        except BaseException as exc:  # raised again below, in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(1, workers)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def check_dimension(d: int) -> int:
    """Validate a local dimension (an integer >= 2) and return it as ``int``."""
    return check_int(d, "local dimension", minimum=2)


def validate_digits(digits: Sequence[int], d: int, length: int | None = None) -> tuple[int, ...]:
    """Normalize a digit string to a tuple, checking range and length.

    Every entry must be an integer in ``[0, d)``.  The string must be
    non-empty, and must have exactly ``length`` entries when that is given.
    Sets and mappings are rejected (see :func:`~quditbv.errors.check_sequence`).
    """
    check_dimension(d)
    out = []
    for v in check_sequence(digits, "digit string"):
        v = check_int(v, "digit")
        if not 0 <= v < d:
            raise DomainError(f"digit {v} is outside [0, {d})")
        out.append(v)
    if not out:
        raise DomainError("digit string must be non-empty")
    if length is not None and len(out) != length:
        raise DomainError(f"expected {length} digits, got {len(out)}")
    return tuple(out)


class _Owned:
    """An array the library has just allocated, for a :class:`Statevector` to adopt.

    ``Statevector(_Owned(amps), d, k)`` takes ``amps`` as is, without the copy
    that public construction makes, and makes it read-only.  ``amps`` must be a
    fresh, C-contiguous complex128 array that no caller holds.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True, eq=False)
class Statevector:
    """Immutable dense state of ``qudit_count`` qudits of dimension ``d``.

    Validated to have exactly ``d**qudit_count`` finite entries, and made
    read-only.  A caller's amplitude array counts against the amplitude budget
    before it is copied, as a gate's does, and later changes to it cannot reach
    the state; arrays the library has just built for it are adopted as they are.
    """

    amplitudes: np.ndarray
    d: int
    qudit_count: int

    def __post_init__(self) -> None:
        d = check_dimension(self.d)
        k = check_int(self.qudit_count, "qudit_count", minimum=1)
        if isinstance(self.amplitudes, _Owned):
            amps = self.amplitudes.array
        else:
            not_complex = "amplitudes must be an array of complex numbers"
            try:
                raw = np.asarray(self.amplitudes)  # no copy before the budget check
            except (TypeError, ValueError) as exc:  # ragged rows, for one
                raise DomainError(f"{not_complex}: {exc}") from exc
            check_capacity(raw.size, "state")
            try:
                amps = raw.astype(np.complex128)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"{not_complex}: {exc}") from exc
        if amps.ndim != 1:
            raise DomainError(f"amplitudes must be one-dimensional, got shape {amps.shape}")
        if amps.size != d**k:
            raise DomainError(
                f"amplitude count {amps.size} does not match d**qudit_count = {d**k}"
            )
        _check_finite(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "qudit_count", k)

    @property
    def size(self) -> int:
        """Number of amplitudes, ``d**qudit_count``."""
        return self.amplitudes.size

    def norm(self) -> float:
        """Euclidean norm of the amplitude array."""
        return float(np.linalg.norm(self.amplitudes))


def _check_finite(amps: np.ndarray, label: str = "amplitudes") -> None:
    """Raise ``DomainError`` naming ``label`` unless flat ``amps`` is all finite; masks a piece at a time."""
    step, workers = _split(amps.size)

    def check(lo: int) -> None:
        if not np.isfinite(amps[lo : lo + step]).all():
            raise DomainError(f"{label} must be finite (no NaN or Inf)")

    _spread(check, range(0, amps.size, step), workers)


@dataclass(frozen=True, eq=False)
class _Register(Statevector):
    """The one register a solve owns: its query writes it and its layer rewrites it in place.

    ``_Register(amps, d, k, row)`` adopts ``amps``, a fresh, writeable,
    C-contiguous complex128 array of ``d**k`` entries, as is: the solver
    builds it from validated parts, and it is not checked again here.  The
    array starts unwritten.  :meth:`LinearOracle.apply_quantum` writes it
    once, whole, from ``row``: each input's row is ``row`` rotated by
    ``f(x)``, bit for bit the query of a state whose every row is ``row``.
    It returns the register itself, and :func:`apply_local_gate` then
    rewrites it in place and returns it.  Given any other state, both
    leave it unchanged and return a new one.  A register never leaves the
    solver: the solver hands on a plain :class:`Statevector` that adopts
    the array, which validates it in full and makes it read-only.
    """

    row: np.ndarray | None

    def __post_init__(self) -> None:
        pass


def encode_digits(digits: Sequence[int], d: int) -> int:
    """Flat index of the basis state labeled by ``digits``, big-endian.

    ``encode_digits((x1, ..., xn), d)`` is ``sum(x_i * d**(n - i))``, so the
    first digit is the most significant.
    """
    digits = validate_digits(digits, d)
    index = 0
    for v in digits:
        index = index * d + v
    return index


def decode_index(index: int, d: int, n: int) -> tuple[int, ...]:
    """Digit string of length ``n`` whose big-endian encoding is ``index``."""
    check_dimension(d)
    n = check_int(n, "digit count", minimum=1)
    index = check_int(index, "index")
    if not 0 <= index < d**n:
        raise DomainError(f"index {index} is outside [0, {d**n})")
    digits = []
    for _ in range(n):
        index, r = divmod(index, d)
        digits.append(r)
    return tuple(reversed(digits))


def all_digit_strings(d: int, n: int) -> Iterator[tuple[int, ...]]:
    """Iterate all length-``n`` digit strings in flat-index order."""
    check_dimension(d)
    return product(range(d), repeat=check_int(n, "digit count", minimum=1))


def basis_state(digits: Sequence[int], d: int) -> Statevector:
    """Computational basis state |digits> as a dense statevector."""
    digits = validate_digits(digits, d)
    size = d ** len(digits)
    check_capacity(size, "basis state")
    amps = np.zeros(size, dtype=np.complex128)
    amps[encode_digits(digits, d)] = 1.0
    return Statevector(_Owned(amps), d, len(digits))


def tensor(a: Statevector, b: Statevector) -> Statevector:
    """Tensor product: ``a``'s qudits become positions 1..k_a, ``b``'s follow."""
    check_type(a, Statevector, "a")
    check_type(b, Statevector, "b")
    if a.d != b.d:
        raise DomainError(f"cannot tensor states of dimension {a.d} and {b.d}")
    check_capacity(a.size * b.size, "tensor product")
    # np.kron realizes exactly the big-endian composite index i_a * size_b + i_b.
    amps = np.kron(a.amplitudes, b.amplitudes)
    return Statevector(_Owned(amps), a.d, a.qudit_count + b.qudit_count)


def inner_product(a: Statevector, b: Statevector) -> complex:
    """Complex inner product <a|b>, conjugating ``a``."""
    check_type(a, Statevector, "a")
    check_type(b, Statevector, "b")
    if a.d != b.d or a.qudit_count != b.qudit_count:
        raise DomainError(
            "inner product needs matching registers, got "
            f"(d={a.d}, k={a.qudit_count}) and (d={b.d}, k={b.qudit_count})"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))
