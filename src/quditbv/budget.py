"""Amplitude budget guarding against accidentally huge dense registers.

The budget is the maximum number of complex amplitudes a single register or
gate matrix may hold.  It defaults to 2**24 and can be overridden either
through the ``QUDITBV_AMPLITUDE_BUDGET`` environment variable or
programmatically with :func:`set_amplitude_budget`.
"""

from __future__ import annotations

import os

from .errors import CapacityError, DomainError, check_int

DEFAULT_AMPLITUDE_BUDGET = 1 << 24
BUDGET_ENV_VAR = "QUDITBV_AMPLITUDE_BUDGET"

_override: int | None = None


def amplitude_budget() -> int:
    """Current maximum number of amplitudes a dense register may hold."""
    if _override is not None:
        return _override
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None or not raw.strip():
        return DEFAULT_AMPLITUDE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    return check_int(value, BUDGET_ENV_VAR, minimum=2)


def set_amplitude_budget(value: int | None) -> None:
    """Override the budget for this process; ``None`` restores the default."""
    global _override
    _override = None if value is None else check_int(value, "amplitude budget", minimum=2)


def check_capacity(entries: int, what: str = "register") -> None:
    """Raise :class:`CapacityError` if ``entries`` amplitudes exceed the budget.

    ``what`` names the allocation in the message.
    """
    budget = amplitude_budget()
    if entries > budget:
        raise CapacityError(
            f"{what} would need {entries} amplitudes, exceeding the budget of {budget}"
        )
