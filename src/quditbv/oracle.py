"""Query oracle for the hidden linear digit string.

The oracle owns a secret string ``s`` of ``n`` digits in ``[0, d)`` and
exposes the function ``f(x) = (s . x) mod d`` in two forms:

* ``eval_classical(x)`` returns ``f(x)`` for one digit string;
* ``apply_quantum(state)`` applies the unitary
  ``|x>|y> -> |x>|(y + f(x)) mod d>`` to an (n+1)-qudit register, as the
  product of ``SUM**s_i`` gates from input qudit ``i`` to the target, run
  through the modular-add kernel that :func:`~quditbv.gates.apply_sum` uses.

Each call counts as exactly one query, no matter how large a superposition a
quantum call touches.  Solvers must recover ``s`` through queries alone; the
secret is stored name-mangled and is not part of the public surface.

Instances are not thread-safe: the query counter assumes one caller at a
time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError, check_int
from .gates import _sum_power
from .state import Statevector, check_dimension, validate_digits


class LinearOracle:
    """Counting oracle for ``f(x) = (s . x) mod d`` with hidden ``s``."""

    def __init__(self, secret: Sequence[int], d: int):
        d = check_dimension(d)
        secret = validate_digits(secret, d)
        self.__secret = secret
        self._d = d
        self._n = len(secret)
        self._query_count = 0

    @property
    def d(self) -> int:
        return self._d

    @property
    def n(self) -> int:
        """Length of the hidden string, i.e. the input register size."""
        return self._n

    @property
    def query_count(self) -> int:
        """Number of queries so far; reading does not count as a query."""
        return self._query_count

    def eval_classical(self, x: Sequence[int]) -> int:
        """Return ``f(x)`` for one digit string.  Counts one query."""
        x = validate_digits(x, self._d, length=self._n)
        self._query_count += 1
        return sum(s * v for s, v in zip(self.__secret, x)) % self._d

    def apply_quantum(self, state: Statevector) -> Statevector:
        """Apply ``|x>|y> -> |x>|(y + f(x)) mod d>``.  Counts one query.

        The state must hold ``n + 1`` qudits of dimension ``d``: the input
        register in positions 1..n and the target qudit at position n+1.
        The action is a pure permutation of amplitudes: ``SUM**s_i`` from
        each input qudit ``i`` with ``s_i != 0`` to the target.
        """
        d, n = self._d, self._n
        if state.d != d:
            raise DomainError(f"state dimension {state.d} does not match oracle dimension {d}")
        if state.qudit_count != n + 1:
            raise DomainError(
                f"oracle acts on {n + 1} qudits, got a state of {state.qudit_count}"
            )
        # Passes alternate between two scratch arrays; the caller's amplitudes
        # are read-only and are never reused as one.
        cube, spare = state.amplitudes.reshape((d,) * (n + 1)), None
        for axis, s in enumerate(self.__secret):
            if s:
                out = np.empty_like(cube) if spare is None else spare
                _sum_power(cube, out, axis, n, s)
                spare, cube = (cube if cube.flags.writeable else None), out
        spare = None  # free it before the Statevector copy
        self._query_count += 1
        return Statevector(cube.reshape(-1), d, n + 1)


def random_secret(d: int, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw a uniform secret string of ``n`` digits in ``[0, d)`` from ``rng``."""
    check_dimension(d)
    n = check_int(n, "secret length", minimum=1)
    return tuple(int(v) for v in rng.integers(0, d, size=n))
