"""Pinned bits of the solve: of the stages that call no BLAS, of its final state,
and of the command line's stdout.

The stage digests are of the arrays as they were before the row sweeps ran
strided and the query through lookup tables, so any change to the order in
which prep, query or readout add or multiply shows here.  None of these
stages calls BLAS, so their digests hold under every OpenBLAS kernel and
thread count.

The solve's final state goes through the inverse Fourier layer, whose
products round as the BLAS kernel does, so its digests are pinned for
OpenBLAS's SkylakeX kernel only.  They hold at every thread count, and they
are the layer's own bits rather than those of a reference built from the
same passes, so a change to how the layer fuses or blocks its products
shows here.  The peak probabilities the command line prints come from that
state, so its stdout digest is pinned for the same kernel.
"""

import ctypes
import hashlib
import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from quditbv import LinearOracle, Statevector, cli, quantum_bv_states, random_secret
from quditbv.algorithm import _fourier_product, marginal_probabilities
from quditbv.state import _Owned

# (d, n): sha256[:16] of the pre-query state; of the query's image of that
# state weighted by random magnitudes; and of that image's input-register
# marginal.
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
    """The digests of ``GOLDEN[d, n]``."""
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
    out = oracle.apply_quantum(Statevector(_Owned(amps), d, n + 1))
    found.append(digest(out.amplitudes))
    found.append(digest(marginal_probabilities(out, range(1, n + 1))))
    return found


@pytest.mark.parametrize("d,n", list(GOLDEN))
def test_prep_query_and_readout_keep_their_bits(d, n):
    prep, query, marginal = GOLDEN[d, n]
    assert stage_digests(d, n) == [prep, query, marginal]


# (d, n): sha256[:16] of quantum_bv_states(oracle).final's amplitudes and of
# their input-register marginal, under OpenBLAS's SkylakeX kernel.
FINAL = {
    (2, 1): ("3c04fb93e689b905", "1b1af4bf404cbf16"),
    (2, 3): ("7079f18a4d22f102", "9c45bc8eaf43b947"),
    (2, 14): ("61c0a2cda3de451e", "4538a8008f7e4902"),
    (2, 16): ("60fb2091cc34b62d", "f955862aad60a473"),
    (3, 9): ("4c27e2c244b585e4", "87670387bcb980b0"),
    (3, 12): ("2e0389e29dac207b", "96275a8a2a8a37c3"),
    (4, 5): ("6ed8924d4045c574", "eedfc12629b5a262"),
    (5, 4): ("d7380c4f07f77c94", "f8b0cd092d44ad9e"),
    (5, 7): ("4a3d7edef541f8fd", "a08538dd8fed059a"),
    (7, 1): ("5472195c6c8b092b", "18edcc096e446296"),
    (9, 2): ("2b82be71233b1833", "ea3b18f69e611f9d"),
    (90, 2): ("9a9214209ab937df", "b08853831ac11170"),
    (91, 2): ("64fa378fbdd0c3a3", "fdfaa0d12afbc7f6"),
    (100, 1): ("b5f16d521101a749", "e0e198a002585718"),
}


def openblas_core():
    """The name of the kernel numpy's scipy-openblas runs, or ``None`` without one."""
    try:
        get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()


@pytest.mark.parametrize("d,n", list(FINAL))
def test_final_keeps_its_bits_under_the_skylakex_kernel(d, n):
    core = openblas_core()
    if core != "SkylakeX":
        pytest.skip(f"the final digests are pinned for OpenBLAS's SkylakeX kernel, not {core}")
    oracle = LinearOracle(random_secret(d, n, np.random.default_rng(d * 1000 + n)), d)
    final = quantum_bv_states(oracle).final
    marginal = marginal_probabilities(final, range(1, n + 1))
    assert (digest(final.amplitudes), digest(marginal)) == FINAL[d, n]


# One running sha256 over repr((argv, exit code, stdout)) of cli.main for each
# argv of cli_argvs(), under OpenBLAS's SkylakeX kernel.
STDOUT = "d9d37bc2fb67671c61c4df460709a03cbc37f440976fb31342f3daf82b7ce039"


def cli_argvs(monkeypatch):
    """The benchmark's 540 command lines (three workloads, seeds 0-5), then four at the edges.

    ``perfbench/workloads.py`` is loaded by its path, since ``perfbench/`` is
    not importable while ``tests/`` is collected.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    argvs = [
        argv
        for name in ("edge_wide", "edge_qubit", "small_batch")
        for seed in range(6)
        for argv in workloads.make_inputs(workloads.WORKLOADS[name], seed).cli_argvs
    ]
    edges = [
        "run --d 16 --n 5 --seed 7",
        "run --d 2 --n 22 --seed 7",
        "sweep --d 2..4 --n 1..5 --seed 1",
        "run --d 256 --n 2 --mode both --seed 2",
    ]
    return argvs + [line.split() for line in edges]


def test_stdout_keeps_its_bytes_under_the_skylakex_kernel(monkeypatch):
    core = openblas_core()
    if core != "SkylakeX":
        pytest.skip(f"the stdout digest is pinned for OpenBLAS's SkylakeX kernel, not {core}")
    argvs = cli_argvs(monkeypatch)
    assert len(argvs) == 544
    running = hashlib.sha256()
    for argv in argvs:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        running.update(repr((argv, code, out.getvalue())).encode())
    assert running.hexdigest() == STDOUT
