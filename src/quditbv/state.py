"""Dense statevectors for registers of d-level systems.

Conventions used throughout the package:

* A register of ``k`` qudits with local dimension ``d`` is a dense array of
  ``d**k`` complex amplitudes.
* Indexing is big-endian: qudit 1 is the most significant base-d digit of the
  flat array index, qudit ``k`` the least significant.
* Qudit positions are 1-based everywhere in the public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .budget import check_capacity
from .errors import DomainError, check_int


def check_dimension(d: int) -> int:
    """Validate a local dimension (an integer >= 2) and return it as ``int``."""
    return check_int(d, "local dimension", minimum=2)


def validate_digits(digits: Sequence[int], d: int, length: int | None = None) -> tuple[int, ...]:
    """Normalize a digit string to a tuple, checking range and length.

    Every entry must be an integer in ``[0, d)``.  The string must be
    non-empty, and must have exactly ``length`` entries when that is given.
    """
    check_dimension(d)
    try:
        digits = iter(digits)
    except TypeError:
        raise DomainError(f"digit string must be a sequence of integers, got {digits!r}") from None
    out = []
    for v in digits:
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
    read-only.  An amplitude array from a public caller is copied on
    construction, so later changes to it cannot reach the state; arrays the
    library has just built for the state are adopted without that copy.
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
            try:
                amps = np.array(self.amplitudes, dtype=np.complex128)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"amplitudes must be an array of complex numbers: {exc}") from exc
        if amps.ndim != 1:
            raise DomainError(f"amplitudes must be one-dimensional, got shape {amps.shape}")
        if amps.size != d**k:
            raise DomainError(
                f"amplitude count {amps.size} does not match d**qudit_count = {d**k}"
            )
        if not np.all(np.isfinite(amps)):
            raise DomainError("amplitudes must be finite (no NaN or Inf)")
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
    if a.d != b.d:
        raise DomainError(f"cannot tensor states of dimension {a.d} and {b.d}")
    check_capacity(a.size * b.size, "tensor product")
    # np.kron realizes exactly the big-endian composite index i_a * size_b + i_b.
    amps = np.kron(a.amplitudes, b.amplitudes)
    return Statevector(_Owned(amps), a.d, a.qudit_count + b.qudit_count)


def inner_product(a: Statevector, b: Statevector) -> complex:
    """Complex inner product <a|b>, conjugating ``a``."""
    if a.d != b.d or a.qudit_count != b.qudit_count:
        raise DomainError(
            "inner product needs matching registers, got "
            f"(d={a.d}, k={a.qudit_count}) and (d={b.d}, k={b.qudit_count})"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))
