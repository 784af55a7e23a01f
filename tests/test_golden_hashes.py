"""Pinned bits of the stages that call no BLAS: prep, query and readout.

The digests below are of the arrays as they were before the row sweeps ran
strided and the query through lookup tables, so any change to the order in
which those stages add or multiply shows here.  None of these stages calls
BLAS, so the digests hold under every OpenBLAS kernel and thread count.
"""

import hashlib

import numpy as np
import pytest

from quditbv import LinearOracle, Statevector, random_secret
from quditbv.algorithm import _fourier_product, marginal_probabilities
from quditbv.state import _Owned, _Register

# (d, n): sha256[:16] of the pre-query state; of the query's image of that
# state weighted by random magnitudes, in place and out of place alike; and
# of that image's input-register marginal.
GOLDEN = {
    (2, 16): ("b6b77506d51a20cb", "fbc576c251ce5520", "aa273117a9da4082"),
    (3, 12): ("e86ea20a033e81a1", "7c5fada62e2f717b", "f2cecdbb6c186410"),
    (5, 7): ("3e641897e8907952", "f9d9a26d3b1f6589", "80ab27c9c57b303f"),
    (7, 6): ("6d31fefe23c7a29e", "789fe2222417f7ad", "ed40b2a6c20b8d78"),
    (16, 4): ("9a3edee97ae2f094", "5ef76f8574653ec8", "9fe5ec4d89204007"),
    (64, 3): ("2f4de2c349c07b07", "665072647f0cabce", "52983d07e1a4a7fc"),
    (256, 2): ("bb601a8265a7625a", "a1d98b6d37dc09a7", "d55fc963a2b977b1"),
}


def digest(array):
    return hashlib.sha256(array.data).hexdigest()[:16]


def stage_digests(d, n):
    """The digests of ``GOLDEN[d, n]``, the in-place query's after the out-of-place one's."""
    rng = np.random.default_rng(d * 1000 + n)
    oracle = LinearOracle(random_secret(d, n, rng), d)
    amps = _fourier_product((0,) * n + (d - 1,), d)
    found = [digest(amps)]
    # Unequal magnitudes, so that the readout's sums depend on their order;
    # the weights' squares average 1, so the state's norm stays 1 to rounding.
    weights = rng.random(amps.size)
    weights *= amps.size / np.add.reduce(weights)
    amps *= np.sqrt(weights, out=weights)
    del weights
    out = oracle.apply_quantum(Statevector(_Owned(amps.copy()), d, n + 1))
    found.append(digest(out.amplitudes))
    found.append(digest(marginal_probabilities(out, range(1, n + 1))))
    del out
    found.append(digest(oracle.apply_quantum(_Register(amps, d, n + 1)).amplitudes))
    return found


@pytest.mark.parametrize("d,n", list(GOLDEN))
def test_prep_query_and_readout_keep_their_bits(d, n):
    prep, query, marginal = GOLDEN[d, n]
    assert stage_digests(d, n) == [prep, query, marginal, query]
