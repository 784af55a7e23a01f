"""Exception types shared across the package, and the argument validators that raise them."""

from collections.abc import Iterable, Mapping, Set
from typing import TypeVar

import numpy as np

_T = TypeVar("_T")


class QuditError(Exception):
    """Base class for every error raised by this package."""


class DomainError(QuditError, ValueError):
    """An argument violates a documented precondition (bad digit, shape, or position)."""


class CapacityError(QuditError):
    """A requested register or operator would exceed the amplitude budget."""


class ConsistencyError(QuditError):
    """An internal numerical guarantee failed; this signals a bug, not bad input."""


def check_int(value: int, label: str, minimum: int | None = None) -> int:
    """Validate an integer argument and return it as ``int``.

    Bools and non-integers are rejected, and so are values below ``minimum``
    when that is given.
    """
    if type(value) is not int:  # plain ints skip the slower checks below
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DomainError(f"{label} must be an integer, got {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise DomainError(f"{label} must be at least {minimum}, got {value!r}")
    return value


def check_type(value: object, cls: type[_T], label: str) -> _T:
    """Raise ``DomainError`` unless ``value`` is an instance of ``cls``; return it."""
    if not isinstance(value, cls):
        raise DomainError(f"{label} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def check_sequence(value: Iterable[_T], label: str) -> tuple[_T, ...]:
    """Read an ordered input once and return it as a tuple, its entries unchecked.

    Sets and mappings are rejected: their iteration order is not an order of
    digits or positions.
    """
    if isinstance(value, (Set, Mapping)):
        raise DomainError(f"{label} must be an ordered sequence, got {type(value).__name__}")
    try:
        return tuple(value)
    except TypeError:
        raise DomainError(f"{label} must be a sequence, got {value!r}") from None
