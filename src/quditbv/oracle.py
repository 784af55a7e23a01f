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
  through one scratch block, and equals the chain of
  :func:`~quditbv.gates.apply_sum` calls exactly, which shares no code with
  it.  The blocks of a large register are spread over as many threads as
  numpy's BLAS is given, each through its own share of the scratch block.
  It rewrites the register a solver owns in place, and writes any other
  state's image into a new one.

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
from .state import Statevector, _output, _result, _split, _spread, check_dimension, validate_digits

# Amplitudes gathered per step of a quantum query, so the step's flat index
# array and its scratch block hold 128 and 256 KiB whatever the register size.
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
        ``f`` is computed once over the ``d**n`` inputs, and each output
        amplitude is read once, a block of inputs at a time, from the target
        row of its input rotated by ``f(x)``.  The input is left unchanged
        and the result is a new state (only the solver's own register is
        rewritten in place).
        """
        d, n = self._d, self._n
        if state.d != d:
            raise DomainError(f"state dimension {state.d} does not match oracle dimension {d}")
        if state.qudit_count != n + 1:
            raise DomainError(
                f"oracle acts on {n + 1} qudits, got a state of {state.qudit_count}"
            )
        out = _output(state)
        _gather_rotated(state.amplitudes, out, self.__secret, d)
        self._query_count += 1
        return _result(state, out)


def _gather_rotated(src: np.ndarray, out: np.ndarray, secret: tuple[int, ...], d: int) -> None:
    """All ``SUM**s_i`` gates as one gather into ``out``: target row ``x`` of ``src`` rotated by ``f(x)``.

    Each block of rows is gathered straight into ``out``, or, when ``out``
    is ``src`` itself, into a scratch block that is then copied back.
    """
    # f(x) = (s . x) mod d over the big-endian input index, one leading digit
    # at a time from the last up, so each add runs a long inner loop over f;
    # its dtype holds the unreduced sum, at most 2(d-1).
    dtype = np.min_scalar_type(2 * (d - 1))
    steps = (np.multiply.outer(secret, np.arange(d)) % d).astype(dtype)
    f = steps[-1]
    for step in steps[-2::-1]:
        f = (step[:, None] + f).reshape(-1)
        f %= d
    # Target digit j of input x is read from digit (j - f(x)) mod d.  Row k
    # of ``windows`` holds (j + k) mod d for j = 0..d-1, as an overlapping
    # view into 0..d-1 written twice, so row d - f(x) holds the digits to read.
    twice = np.arange(2 * d) % d
    windows = np.ndarray((d + 1, d), twice.dtype, twice, strides=(twice.itemsize,) * 2)
    piece, workers = _split(src.size, _GATHER_CHUNK)
    block = min(max(1, piece // d), f.size)  # inputs per gather
    starts = np.arange(0, block * d, d)[:, None]  # start of each row in a block
    scratch = np.empty((workers, block, d), src.dtype) if out is src else None

    def gather(lo: int, w: int) -> None:
        hi = min(lo + block, f.size)
        index = windows[d - f[lo:hi]]
        index += starts[: hi - lo]
        rows = out[lo * d : hi * d].reshape(hi - lo, d) if scratch is None else scratch[w, : hi - lo]
        # Indices are in range; mode="raise" would buffer the output.
        np.take(src[lo * d : hi * d], index, out=rows, mode="clip")
        if scratch is not None:
            out[lo * d : hi * d] = rows.reshape(-1)

    _spread(gather, range(0, f.size, block), workers)


def random_secret(d: int, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw a uniform secret string of ``n`` digits in ``[0, d)`` from ``rng``."""
    check_dimension(d)
    n = check_int(n, "secret length", minimum=1)
    return tuple(int(v) for v in rng.integers(0, d, size=n))
