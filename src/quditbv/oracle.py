"""Query oracle for the hidden linear digit string.

The oracle owns a secret string ``s`` of ``n`` digits in ``[0, d)`` and
exposes the function ``f(x) = (s . x) mod d`` in two forms:

* ``eval_classical(x)`` returns ``f(x)`` for one digit string;
* ``apply_quantum(state)`` applies the unitary
  ``|x>|y> -> |x>|(y + f(x)) mod d>`` to an (n+1)-qudit register.  This is
  the paper's product of ``SUM**s_i`` gates from input qudit ``i`` to the
  target.  They all act on the target, so they commute, and their product
  is one modular add: the target row of each input ``x`` is rotated by
  ``f(x)``.  The query runs it as one gather, a block of rows at a time
  through one scratch block.  Rows whose inputs share their leading digits
  share one table of source indices, rotated by the leading digits' part of
  ``f``, so a block is one ``np.take`` through a table built once per call.
  The query equals the chain of :func:`~quditbv.gates.apply_sum` calls
  exactly, which shares no code with it.  The blocks of a large register
  are spread over as many threads as numpy's BLAS is given, each through its
  own share of the scratch block.  The query rewrites a copy in place; the
  register a solver owns is rewritten as it is.  The solver's register
  before its query is unwritten: each of its rows would be the same
  kickback row, so the query writes every block from the rotations of that
  row, one ``np.take`` of a table of at most one piece, and builds no index
  table.

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
from .state import Statevector, _Register, _result, _RowRegister, _split, _spread, check_dimension, validate_digits

# A quantum query of more than this many amplitudes goes in pieces of half of
# it, and a group of rows that shares one index table fits in a piece: the
# scratch block holds 256 KiB and the d tables at most d * 64 KiB of index
# entries, whatever the register size.  The fill's d groups of values fit in
# a piece too, at most 256 KiB.
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
        from the target row of its input rotated by ``f(x)``, through index
        tables built once per call.  The query rewrites a copy in place: the
        input is left unchanged and the result is a new state that adopts
        the copy (only the solver's own register is rewritten as it is).
        The solver's unwritten register, whose rows are all to be one row, is
        written from that row's rotations instead, with the same bits.
        """
        d, n = self._d, self._n
        check_type(state, Statevector, "state")
        if state.d != d:
            raise DomainError(f"state dimension {state.d} does not match oracle dimension {d}")
        if state.qudit_count != n + 1:
            raise DomainError(
                f"oracle acts on {n + 1} qudits, got a state of {state.qudit_count}"
            )
        amps = state.amplitudes if isinstance(state, _Register) else state.amplitudes.copy()
        if isinstance(state, _RowRegister):
            _fill_rotated(amps, state.row, self.__secret, d)
            state = _Register(amps, d, n + 1)
        else:
            _gather_rotated(amps, self.__secret, d)
        self._query_count += 1
        return _result(state, amps)


def _gather_rotated(register: np.ndarray, secret: tuple[int, ...], d: int) -> None:
    """All ``SUM**s_i`` gates as one gather, in place: target row ``x`` of ``register`` rotated by ``f(x)``.

    ``f`` splits over the big-endian input digits into a lead and a low
    part (see :func:`_lead_low`), where the low part covers the last ``m``
    digits: the most whose group of ``d**m`` rows fits in one piece of the
    sweep.  All rows of a group share one table of source indices, rotated
    by the group's lead value ``c``: ``tables[c]`` is the table of ``c = 0``
    with its columns rotated by ``c``.  The ``d`` tables (only ``tables[0]``
    on a register of one block, whose lead is empty) are built once from the
    ``d**m`` low inputs, and ``f_lead`` over the other ``d**(n-m)``, so no
    ``f`` of all ``d**n`` inputs is formed.  When ``d**2`` exceeds a piece,
    ``m`` is 0 and each group is one row, whose tables are the rows of
    :func:`_rotations`, a view.

    A block is as many groups as fit in a piece.  A block of one group is
    one ``np.take`` through its table; the index of a longer one, such as a
    block of rows, is its groups' tables, each offset to its group.  Each
    block is gathered into the worker's share of a scratch block, which is
    then copied back over it.

    Tables are built only for groups of more than one row, so for
    ``d**2 <= piece``: they hold at most ``d`` pieces of index entries, at
    most ``piece**1.5`` (5.6 MiB at 8 bytes each), and at most
    ``d**(m+2) <= d**(n+1)``, never more than half the register that the
    caller has already charged to the budget.  The workers' scratch blocks
    add up to one ``_GATHER_CHUNK``.
    """
    piece, workers = _split(register.size, _GATHER_CHUNK)
    lead, low = _lead_low(secret, d, piece // d)
    # Target digit j of row r reads digit (j - f_low(r) - c) mod d, which
    # row (f_low(r) + c) mod d of the rotations of 0..d-1 holds.
    rotations = _rotations(np.arange(d))
    group = low.size * d  # amplitudes per group
    if low.size == 1:  # groups of one row: tables[c] is rotations[c]
        tables = rotations
    else:
        shift = low if lead.size == 1 else (low + np.arange(d)[:, None]) % d
        tables = rotations[shift]
        tables += np.arange(0, group, d)[:, None]  # the start of each row
        tables = tables.reshape(-1, group)
    per = min(max(1, piece // group), lead.size)  # groups per block
    offsets = np.arange(0, per * group, group)[:, None]
    scratch = np.empty((workers, per * group), register.dtype)

    def gather(g: int, w: int) -> None:
        lo, hi = g * group, min(g + per, lead.size) * group
        if per == 1:
            index = tables[lead[g]]
        else:
            index = tables[lead[g : g + per]]
            index += offsets[: index.shape[0]]
        rows = scratch[w, : hi - lo]
        # Indices are in range; mode="raise" would buffer the output.
        np.take(register[lo:hi], index, out=rows.reshape(index.shape), mode="clip")
        register[lo:hi] = rows

    _spread(gather, range(0, lead.size, per), workers)


def _fill_rotated(register: np.ndarray, row: np.ndarray, secret: tuple[int, ...], d: int) -> None:
    """The query of a register whose every target row is ``row``, written into the unwritten ``register``.

    Target row ``x`` is ``row`` rotated by ``f(x)``, so no entry of
    ``register`` is read.  With ``f`` split as in :func:`_gather_rotated`,
    the low part over the most last digits whose ``d`` groups of values fit
    in one piece (``d**(m+2) <= piece``), ``values[c]`` is the whole group
    of lead value ``c``: its rows are the rotations of ``row`` by
    ``f_low + c``.  A block of groups is then one ``np.take`` of ``values``
    straight into the register.  Only ``values[0]`` is built when the lead
    is empty.  When ``d**2`` exceeds a piece, each group is one row, copied
    from :func:`_rotations` of ``row``, a view, so no ``d x d`` table is
    built.  The values hold at most one piece; each copies entries of
    ``row``, so the result has the bits of the gather of the full register.
    """
    piece, workers = _split(register.size, _GATHER_CHUNK)
    lead, low = _lead_low(secret, d, piece // (d * d))
    rotations = _rotations(row)
    group = low.size * d  # amplitudes per group
    if d * d > piece:  # groups of one row: values[c] is rotations[c]
        values = rotations
    else:
        shift = low if lead.size == 1 else (low + np.arange(d)[:, None]) % d
        values = rotations[shift].reshape(-1, group)
    per = min(max(1, piece // group), lead.size)  # groups per block

    def fill(g: int, w: int) -> None:
        rows = register[g * group : min(g + per, lead.size) * group].reshape(-1, group)
        if values is rotations:  # np.take would copy the view whole
            rows[...] = values[lead[g : g + per]]
        else:  # indices are in range; mode="raise" would buffer the output
            np.take(values, lead[g : g + per], axis=0, out=rows, mode="clip")

    _spread(fill, range(0, lead.size, per), workers)


def _lead_low(secret: tuple[int, ...], d: int, room: int) -> tuple[np.ndarray, np.ndarray]:
    """``f``'s lead and low parts, ``f(x) = (f_lead(x_lead) + f_low(x_low)) mod d``.

    The low part covers the last ``m`` digits, the most (down to none) with
    ``d**m <= room``; ``f_lead`` runs over the other ``d**(n-m)`` inputs.
    """
    n = len(secret)
    m = n
    while m and d**m > room:
        m -= 1
    # The dtype holds an unreduced sum of two digits, at most 2(d-1).
    steps = (np.multiply.outer(secret, np.arange(d)) % d).astype(np.min_scalar_type(2 * (d - 1)))
    return _dot_mod(steps[: n - m], d), _dot_mod(steps[n - m :], d)


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
    long inner loop over the values so far.
    """
    if not len(steps):
        return np.zeros(1, steps.dtype)
    f = steps[-1]
    for step in steps[-2::-1]:
        f = (step[:, None] + f).reshape(-1)
        f %= d
    return f


def random_secret(d: int, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw a uniform secret string of ``n`` digits in ``[0, d)`` from ``rng``."""
    check_dimension(d)
    n = check_int(n, "secret length", minimum=1)
    check_type(rng, np.random.Generator, "rng")
    return tuple(int(v) for v in rng.integers(0, d, size=n))
