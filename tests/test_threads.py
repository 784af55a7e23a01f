"""The solve's sweeps spread over numpy's BLAS threads, and its results do not depend on them."""

import functools
import hashlib
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from quditbv import (
    DomainError,
    LinearOracle,
    Statevector,
    apply_local_gate,
    fourier_matrix,
    marginal_probabilities,
    quantum_bv_states,
    random_secret,
)
from quditbv.algorithm import _inverse_fourier
from quditbv.state import _BLOCK, _blas_threads, _openblas, _Owned, _Register

from test_gates import LAYER_CASES, LAYER_IDS, random_state

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WORKERS = [1, 2, 3]


@pytest.fixture
def workers(monkeypatch, request):
    """Force the sweeps' worker count, with pieces of a third of a block so that 3 workers can run.

    The pieces do not depend on the count, so every count must give the same
    products; a job lost or run twice between workers would change them.  The
    interpreter switches threads often meanwhile, to give such a race its
    chance.  Yields the count and the list of threads started meanwhile.
    """
    monkeypatch.setattr("quditbv.state._SHARES", 3)
    monkeypatch.setattr("quditbv.state._blas_threads", lambda: request.param)
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param, started
    finally:
        sys.setswitchinterval(interval)


def one_worker(fn, *args):
    """``fn(*args)`` with the pieces of ``workers`` and one worker: the reference for each count."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("quditbv.state._SHARES", 3)
        patch.setattr("quditbv.state._blas_threads", lambda: 1)
        return fn(*args)


def solve(d, n):
    """The sha256 of a solve's ``final`` and of its readout marginal."""
    oracle = LinearOracle(random_secret(d, n, np.random.default_rng(d * n)), d)
    final = quantum_bv_states(oracle).final
    marginal = marginal_probabilities(final, range(1, n + 1))
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in (final.amplitudes, marginal)]


@functools.cache
def one_worker_solve(d, n):
    return one_worker(solve, d, n)


@pytest.mark.parametrize("workers", WORKERS, indirect=True)
@pytest.mark.parametrize("d,n", [(2, 20), (3, 12), (16, 4), (256, 2)])
def test_solve_is_bit_identical_at_every_worker_count(d, n, workers):
    count, started = workers
    hashes = solve(d, n)
    assert bool(started) == (count > 1)
    assert hashes == one_worker_solve(d, n)


@pytest.mark.parametrize("workers", WORKERS, indirect=True)
@pytest.mark.parametrize("d,k,positions", LAYER_CASES, ids=LAYER_IDS)
@pytest.mark.parametrize("in_place", [True, False], ids=["in place", "public"])
def test_layer_is_bit_identical_at_every_worker_count(d, k, positions, in_place, workers):
    # A public layer's first pass reads the caller's state and writes a new register.
    state = random_state(d, k, np.random.default_rng(d + k))
    gate = fourier_matrix(d).adjoint()

    def layer():
        if not in_place:
            return apply_local_gate(state, gate, *positions).amplitudes
        register = _Register(state.amplitudes.copy(), d, k, None)
        assert apply_local_gate(register, gate, *positions) is register
        return register.amplitudes

    assert np.array_equal(layer(), one_worker(layer))


@pytest.mark.parametrize("workers", WORKERS, indirect=True)
def test_chunks_wider_than_a_piece_run_on_every_worker(workers):
    # Pieces of 21845 amplitudes and chunks of 400 x 64: every chunk is wider
    # than a piece, and each job holds a spare block of its own.
    count, started = workers
    state = random_state(400, 2, np.random.default_rng(400))
    gate = fourier_matrix(400).adjoint()

    def layer():
        register = _Register(state.amplitudes.copy(), 400, 2, None)
        return apply_local_gate(register, gate, 1).amplitudes

    started.clear()  # the state's finiteness check ran on threads too
    amps = layer()
    assert bool(started) == (count > 1)
    assert np.array_equal(amps, one_worker(layer))


@pytest.mark.parametrize("workers", [2, 3], indirect=True)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_in_the_last_piece_raises_when_spread(bad, workers):
    amps = np.zeros(8 * _BLOCK, dtype=complex)
    amps[-1] = bad
    with pytest.raises(DomainError, match="finite"):
        Statevector(_Owned(amps), 2, 19)
    assert workers[1]  # the check ran on threads


@pytest.mark.parametrize("d,n", [(3, 6), (16, 2)])
def test_first_solves_at_one_dimension_on_two_threads_equal_a_serial_solve(d, n):
    # Both threads may build the kept gate (and at d=3 its fused powers);
    # every build has the same bits, so every final does.
    secret = random_secret(d, n, np.random.default_rng(d * n))
    serial = quantum_bv_states(LinearOracle(secret, d)).final.amplitudes.tobytes()
    threads_before, interval = _blas_threads(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            _inverse_fourier.cache_clear()
            barrier, finals = threading.Barrier(2, timeout=30), [None, None]

            def first_solve(i):
                barrier.wait()
                finals[i] = quantum_bv_states(LinearOracle(secret, d)).final.amplitudes.tobytes()

            pair = [threading.Thread(target=first_solve, args=(i,)) for i in range(2)]
            for thread in pair:
                thread.start()
            for thread in pair:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pair)
            assert finals == [serial, serial]
    finally:
        sys.setswitchinterval(interval)
    assert _blas_threads() == threads_before  # the last layer to leave restores the count


needs_openblas = pytest.mark.skipif(_openblas() is None, reason="numpy is not built on scipy-openblas")


@needs_openblas
def test_concurrent_solves_leave_the_blas_thread_count_as_they_found_it():
    # Each layer holds BLAS at one thread.  A layer that saved the count
    # while another held it would restore 1 after the other restored 2.
    get, put = _openblas()
    before, interval = get(), sys.getswitchinterval()
    secret = random_secret(3, 6, np.random.default_rng(36))
    put(2)
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            barrier = threading.Barrier(2, timeout=30)

            def solve_after_barrier():
                barrier.wait()
                quantum_bv_states(LinearOracle(secret, 3))

            pair = [threading.Thread(target=solve_after_barrier) for _ in range(2)]
            for thread in pair:
                thread.start()
            for thread in pair:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pair)
            assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        put(before)


@needs_openblas
def test_blas_thread_count_is_restored_after_a_solve_and_a_failed_layer(monkeypatch):
    before = _blas_threads()
    solve(2, 17)
    assert _blas_threads() == before
    seen = []

    def failing(*args):
        seen.append(_blas_threads())
        raise RuntimeError("product failed")

    monkeypatch.setattr("quditbv.gates._pass", failing)
    state = random_state(2, 18, np.random.default_rng(0))
    with pytest.raises(RuntimeError, match="product failed"):
        apply_local_gate(_Register(state.amplitudes.copy(), 2, 18, None), fourier_matrix(2), 17, 18)
    assert seen and set(seen) == {1}  # BLAS ran one thread per product
    assert _blas_threads() == before


def test_import_and_a_small_solve_start_no_thread():
    code = (
        "import sys, threading\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: (started.append(self), start(self))[1]\n"
        "before = threading.active_count()\n"
        "import quditbv\n"
        "quditbv.run_quantum_bv(quditbv.LinearOracle((2, 0, 1), 3))\n"
        "print(len(started), threading.active_count() - before, 'concurrent.futures' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split() == ["0", "0", "False"]


@needs_openblas
def test_a_large_layer_and_solve_run_on_blas_threads():
    # Unlike the tests above, nothing forces the worker count: it must come
    # from the real BLAS thread count, read before the layer pins BLAS to one.
    code = (
        "import threading\n"
        "import numpy as np\n"
        "from quditbv import LinearOracle, apply_local_gate, fourier_matrix, quantum_bv_states\n"
        "from quditbv.state import _blas_threads, _Register\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: (started.append(self), start(self))[1]\n"
        "register = _Register(np.zeros(2**18, complex), 2, 18, None)\n"
        "apply_local_gate(register, fourier_matrix(2), *range(1, 19))\n"
        "layer = len(started)\n"
        "quantum_bv_states(LinearOracle((1,) * 17, 2))\n"
        "print(_blas_threads(), layer, len(started) - layer)\n"
    )
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="2",
        PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    threads, layer, solve = map(int, proc.stdout.split())
    if threads < 2:
        pytest.skip(f"numpy's BLAS runs {threads} thread with OPENBLAS_NUM_THREADS=2")
    assert layer >= 1
    assert solve >= 1


def _cpu_flags():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


@needs_openblas
@pytest.mark.skipif(
    not {"avx2", "fma"} <= _cpu_flags(), reason="OpenBLAS's Haswell kernel needs AVX2 and FMA"
)
def test_final_does_not_depend_on_blas_threads_under_the_haswell_kernel():
    # Under this kernel a product's rounding depends on how BLAS splits it
    # over threads, so only a layer that runs one thread per product gives
    # the same amplitudes at every thread count.
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from quditbv import LinearOracle, quantum_bv_states, random_secret\n"
        "for d, n in [(3, 12), (2, 16), (5, 4)]:\n"
        "    oracle = LinearOracle(random_secret(d, n, np.random.default_rng(d * n)), d)\n"
        "    final = quantum_bv_states(oracle).final\n"
        "    print(hashlib.sha256(final.amplitudes.tobytes()).hexdigest())\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_CORETYPE="Haswell",
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        outputs.append(proc.stdout)
    assert len(outputs[0].split()) == 3
    assert outputs[0] == outputs[1]
