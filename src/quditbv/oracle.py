"""Query oracle for the hidden linear digit string.

The oracle owns a secret string ``s`` of ``n`` digits in ``[0, d)`` and
exposes the function ``f(x) = (s . x) mod d`` in two forms:

* ``eval_classical(x)`` returns ``f(x)`` for one digit string;
* ``apply_quantum(state)`` applies the unitary
  ``|x>|y> -> |x>|(y + f(x)) mod d>`` to an (n+1)-qudit register.  This is
  the paper's product of ``SUM**s_i`` gates from input qudit ``i`` to the
  target.  They all act on the target, so they commute, and their product
  is one modular add: the target row of each input ``x`` is rotated by
  ``f(x)``.  The query runs it as one gather, a block of rows at a time,
  from the input straight into a new state.  ``f`` is split once (see
  :func:`_groups`): rows whose inputs share their leading digits form a
  group, whose source indices are one table, the rotations of ``0..d-1``
  by the low digits' part of ``f`` plus the lead value, so a block of groups
  is one ``np.take`` through tables built once per call.  The query equals
  the chain of :func:`~quditbv.gates.apply_sum` calls exactly, which shares
  no code with it.  The blocks of a large register are spread over as many
  threads as numpy's BLAS is given.  A solver's register is written as it
  is, from its row, through the same split and with no index table (see
  :class:`~quditbv.state._Register`).

Each call counts as exactly one query, no matter how large a superposition a
quantum call touches.  Solvers must recover ``s`` through queries alone; the
secret is stored name-mangled and is not part of the public surface.

Instances are not thread-safe: the query counter assumes one caller at a
time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError, check_int, check_type
from .state import _BLOCK, Statevector, _Owned, _Register, _split, _spread, check_dimension, validate_digits

# A public query of more than this many amplitudes goes in pieces of half of
# it.  The d groups of rows that share their low digits fit in a piece, so
# the gather's tables and each block's index hold at most one piece.  It is
# a quarter of state._BLOCK for memory: at _BLOCK a register of up to 2**16
# amplitudes is one piece, whose int64 tables and index span it whole, and
# the public query at d=3, n=9 traced 2.24x the state, not 1.30x.  The
# solve's fill goes in the pieces of _BLOCK, but np.take copies a block's
# lead values to intp, so a block takes at most half this many rows.
_GATHER_CHUNK = 1 << 14


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
        The action is a pure permutation of amplitudes, equal to ``SUM**s_i``
        from each input qudit ``i`` to the target.  It runs as one gather:
        each output amplitude is read once, a block of inputs at a time,
        from the target row of its input rotated by ``f(x)``, straight into
        a new state; the input is left unchanged.  A solver's register is
        written in place instead, from its row, and returned (see
        :class:`~quditbv.state._Register`).
        """
        d, n = self._d, self._n
        check_type(state, Statevector, "state")
        if state.d != d:
            raise DomainError(f"state dimension {state.d} does not match oracle dimension {d}")
        if state.qudit_count != n + 1:
            raise DomainError(
                f"oracle acts on {n + 1} qudits, got a state of {state.qudit_count}"
            )
        if isinstance(state, _Register):
            _fill_rotated(state.amplitudes, state.row, self.__secret, d)
        else:
            amps = np.empty_like(state.amplitudes)
            _gather_rotated(amps, state.amplitudes, self.__secret, d)
            state = Statevector(_Owned(amps), d, n + 1)
        self._query_count += 1
        return state


def _gather_rotated(out: np.ndarray, src: np.ndarray, secret: tuple[int, ...], d: int) -> None:
    """All ``SUM**s_i`` gates as one gather: target row ``x`` of ``out`` is that of ``src`` rotated by ``f(x)``.

    Target digit ``j`` of row ``r`` reads digit ``(j - f(r)) mod d``, which
    row ``f(r)`` of the rotations of ``0..d-1`` holds, so :func:`_groups` of
    those rotations gives each group's source digits.  A block of groups'
    index is their tables, each row offset by its start in the block, and
    the block is one ``np.take`` from ``src`` straight into ``out``.  The
    tables hold at most one piece of index entries, and so does each block's
    index, whatever the register size.
    """
    piece, workers = _split(src.size, _GATHER_CHUNK)
    lead, tables = _groups(np.arange(d), secret, d, piece)
    group = tables.shape[1]  # amplitudes per group
    per = min(max(1, piece // group), lead.size)  # groups per block
    starts = np.arange(0, per * group, d)[:, None]

    def gather(g: int) -> None:
        lo, hi = g * group, min(g + per, lead.size) * group
        index = tables[lead[g : g + per]].reshape(-1, d)
        index += starts[: index.shape[0]]
        # Indices are in range; mode="raise" would buffer the output.
        np.take(src[lo:hi], index, out=out[lo:hi].reshape(index.shape), mode="clip")

    _spread(gather, range(0, lead.size, per), workers)


def _fill_rotated(out: np.ndarray, row: np.ndarray, secret: tuple[int, ...], d: int) -> None:
    """The query of a register whose every target row is ``row``, written into the unwritten ``out``.

    Target row ``x`` is ``row`` rotated by ``f(x)``, so no amplitude is
    read: :func:`_groups` of the rotations of ``row`` gives each group's
    values, and a block of groups is one ``np.take`` of them straight into
    ``out``.  Each copies entries of ``row``, so the result has the bits of
    the gather of the full register.
    """
    piece, workers = _split(out.size, _BLOCK)
    lead, values = _groups(row, secret, d, piece)
    group = values.shape[1]  # amplitudes per group
    per = min(max(1, piece // group), lead.size, _GATHER_CHUNK // 2)  # groups per block

    def fill(g: int) -> None:
        rows = out[g * group : min(g + per, lead.size) * group].reshape(-1, group)
        if d * d > piece:  # np.take would copy the view whole
            rows[...] = values[lead[g : g + per]]
        else:  # indices are in range; mode="raise" would buffer the output
            np.take(values, lead[g : g + per], axis=0, out=rows, mode="clip")

    _spread(fill, range(0, lead.size, per), workers)


def _groups(values: np.ndarray, secret: tuple[int, ...], d: int, piece: int) -> tuple[np.ndarray, np.ndarray]:
    """``f``'s lead values, and for each lead value ``c`` its group's rows: ``values`` rotated by ``f_low + c``.

    ``f(x) = (f_lead(x_lead) + f_low(x_low)) mod d`` over the big-endian
    input digits, where the low part covers the last ``m`` digits: the most
    (down to none) whose ``d`` groups of ``d**m`` rows fit in one piece,
    ``d**(m+2) <= piece``.  ``f_lead`` runs over the other ``d**(n-m)``
    inputs, and the ``d`` groups are one ``np.take`` of the rotations.  When
    no digit is low, or every digit is (the one group would be the whole
    register), each group is one row: the lead values are all of ``f``, and
    ``groups`` is :func:`_rotations` of ``values``, a view once ``d**2``
    exceeds a piece and a copy below.
    """
    m = n = len(secret)
    while m and d ** (m + 2) > piece:
        m -= 1
    # The dtype holds d and an unreduced sum of n digits, at most n(d-1).
    steps = (np.multiply.outer(secret, np.arange(d)) % d).astype(np.min_scalar_type(max(n * (d - 1), d)))
    rotations = _rotations(values)
    if m in (0, n):
        return _dot_mod(steps, d), rotations if d * d > piece else rotations.copy()
    lead, low = _dot_mod(steps[: n - m], d), _dot_mod(steps[n - m :], d)
    shift = (low + np.arange(d)[:, None]) % d
    return lead, np.take(rotations, shift, axis=0).reshape(-1, low.size * d)


def _rotations(values: np.ndarray) -> np.ndarray:
    """Every rotation of ``values`` as a view: row ``v`` is ``values[(j - v) % d]`` for ``j < d``.

    Its rows are overlapping windows, last first, into ``values`` written
    twice.  Built as a plain strided array: ``sliding_window_view`` would
    add about 10 us to every query of a small register.
    """
    d = values.size
    twice = np.concatenate([values, values])
    return np.ndarray((d + 1, d), twice.dtype, twice, strides=(twice.itemsize,) * 2)[d:0:-1]


def _dot_mod(steps: np.ndarray, d: int) -> np.ndarray:
    """``(s . x) mod d`` over the big-endian inputs ``x``, given ``steps[i, v] = (s_i * v) mod d``.

    Built one leading digit at a time from the last up, so each add runs a
    long inner loop over the sums so far, and reduced once, at the end:
    ``steps``' dtype holds the sum of all its rows.
    """
    f = steps[-1]
    for step in steps[-2::-1]:
        f = (step[:, None] + f).reshape(-1)
    return f % d  # a new array: f is a row of steps when there is one


def random_secret(d: int, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw a uniform secret string of ``n`` digits in ``[0, d)`` from ``rng``."""
    check_dimension(d)
    n = check_int(n, "secret length", minimum=1)
    check_type(rng, np.random.Generator, "rng")
    return tuple(int(v) for v in rng.integers(0, d, size=n))
