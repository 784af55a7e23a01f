import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditbv import (
    DomainError,
    LinearOracle,
    Statevector,
    all_digit_strings,
    apply_local_gate,
    apply_sum,
    basis_state,
    decode_index,
    fourier_matrix,
    quantum_bv_states,
    random_secret,
)
from quditbv.algorithm import _fourier_product
from quditbv.oracle import _GATHER_CHUNK
from quditbv.state import _Owned, _Register


def random_state(d, k, rng):
    raw = rng.normal(size=d**k) + 1j * rng.normal(size=d**k)
    return Statevector(raw / np.linalg.norm(raw), d, k)


def sum_chain(state, secret):
    """The paper's circuit: SUM from input qudit i to the target, s_i times."""
    n = len(secret)
    for pos, s in enumerate(secret, start=1):
        for _ in range(s):
            state = apply_sum(state, pos, n + 1)
    return state.amplitudes


def scatter_reference(state, secret):
    """The query as its definition, out[x, (y + f(x)) % d] = in[x, y]: a scatter, where the oracle gathers."""
    d, n = state.d, len(secret)
    f = np.array(list(all_digit_strings(d, n))) @ np.array(secret) % d
    rows = state.amplitudes.reshape(d**n, d)
    expected = np.empty_like(rows)
    expected[np.arange(d**n)[:, None], (np.arange(d) + f[:, None]) % d] = rows
    return expected.reshape(-1)


def pre_query_register(d, n):
    """The state the solve's register stands for before its query, the labeled Fourier state ``0...0, d-1``."""
    return Statevector(_Owned(_fourier_product((0,) * n + (d - 1,), d)), d, n + 1)


def solve_path_query(oracle):
    """The register the solve's query writes from the kickback row, read with the layer left out."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("quditbv.algorithm.apply_local_gate", lambda register, gate, *positions: register)
        return quantum_bv_states(oracle).final.amplitudes


def assert_query_equals(state, secret, expected):
    """The query of ``state`` equals ``expected``."""
    assert np.array_equal(LinearOracle(secret, state.d).apply_quantum(state).amplitudes, expected)


@st.composite
def small_instances(draw):
    """``(d, n, secret)`` with ``d**(n+1) <= 4096``."""
    d = draw(st.integers(2, 64))
    n = draw(st.integers(1, max(k for k in range(1, 12) if d ** (k + 1) <= 4096)))
    secret = tuple(draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
    return d, n, secret


# The 157 shapes just above one gather block, whose inputs span two to four blocks.
GATHER_SHAPES = [
    (d, n) for d in range(2, 257) for n in range(1, 16) if _GATHER_CHUNK < d ** (n + 1) <= 2**16
]


class TestEvalClassical:
    def test_first_bit_probe(self):
        oracle = LinearOracle((1, 0, 1), 2)
        assert oracle.eval_classical((1, 0, 0)) == 1

    @pytest.mark.parametrize("d,secret", [(2, (1, 1)), (3, (2, 0, 1)), (7, (6, 5))])
    def test_all_zero_probe(self, d, secret):
        assert LinearOracle(secret, d).eval_classical((0,) * len(secret)) == 0

    def test_hand_evaluated_dot_product(self):
        # (1*2 + 2*2) mod 3 = 6 mod 3 = 0.
        assert LinearOracle((1, 2), 3).eval_classical((2, 2)) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            LinearOracle((1, 2), 3).eval_classical((1,))

    def test_digit_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            LinearOracle((1, 2), 3).eval_classical((1, 3))

    @pytest.mark.parametrize("secret", [{2, 0}, frozenset({1}), {0: 2}])
    def test_unordered_secret_rejected(self, secret):
        # A set or mapping has no digit order; {2, 0} would be read as (0, 2).
        with pytest.raises(DomainError):
            LinearOracle(secret, 3)


class TestApplyQuantum:
    def test_all_zero_secret_is_identity(self):
        oracle = LinearOracle((0, 0), 3)
        for digits in all_digit_strings(3, 3):
            state = basis_state(digits, 3)
            out = oracle.apply_quantum(state)
            assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_single_qubit_cnot_behavior(self):
        oracle = LinearOracle((1,), 2)
        out = oracle.apply_quantum(basis_state((1, 0), 2))
        assert out.amplitudes[3] == 1.0  # |1>|1>
        assert np.count_nonzero(out.amplitudes) == 1

    def test_base3_example(self):
        # f((2,1)) = (1*2 + 2*1) mod 3 = 1, so |21>|0> -> |21>|1>.
        oracle = LinearOracle((1, 2), 3)
        out = oracle.apply_quantum(basis_state((2, 1, 0), 3))
        hit = decode_index(int(np.argmax(np.abs(out.amplitudes))), 3, 3)
        assert hit == (2, 1, 1)
        assert np.count_nonzero(out.amplitudes) == 1

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (5, 3), (10, 2)])
    def test_consistency_with_classical_exhaustive(self, d, n):
        # For every basis input |x>|0>, the target digit after the quantum
        # call must equal the classical value, recomputed here by hand.
        assert d**n <= 10**3
        rng = np.random.default_rng(d * 100 + n)
        secret = random_secret(d, n, rng)
        oracle = LinearOracle(secret, d)
        for x in all_digit_strings(d, n):
            expected_digit = sum(s * v for s, v in zip(secret, x)) % d
            out = oracle.apply_quantum(basis_state(x + (0,), d))
            hit = decode_index(int(np.argmax(np.abs(out.amplitudes))), d, n + 1)
            assert hit == x + (expected_digit,)

    def test_is_permutation_and_d_applications_restore(self):
        rng = np.random.default_rng(77)
        for d, n in [(2, 2), (3, 2), (5, 1)]:
            secret = random_secret(d, n, rng)
            oracle = LinearOracle(secret, d)
            raw = rng.normal(size=d ** (n + 1)) + 1j * rng.normal(size=d ** (n + 1))
            state = Statevector(raw / np.linalg.norm(raw), d, n + 1)
            out = state
            for _ in range(d):
                out = oracle.apply_quantum(out)
            assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_equals_chain_of_sum_gates(self):
        rng = np.random.default_rng(5)
        for d in range(2, 6):
            for n in (1, 2, 3):
                secret = random_secret(d, n, rng)
                state = random_state(d, n + 1, rng)
                out = LinearOracle(secret, d).apply_quantum(state)
                assert np.array_equal(out.amplitudes, sum_chain(state, secret)), (d, secret)
        # Every secret of the smallest register; and at n = 1, d = 128 fills
        # one gather block exactly while d = 129 spills into a second.  They
        # are also the last and first d whose f is uint8 and uint16.
        for d in (2, 128, 129):
            state = random_state(d, 2, rng)
            for secret in ((int(rng.integers(d)),), (0,), (1,), (d - 1,)):
                out = LinearOracle(secret, d).apply_quantum(state)
                assert np.array_equal(out.amplitudes, sum_chain(state, secret)), (d, secret)

    @pytest.mark.parametrize("d,n", [(2, 14), (3, 9), (7, 5)])
    def test_equals_chain_of_sum_gates_across_gather_blocks(self, d, n):
        # Registers above one gather block: their inputs span several
        # blocks, and at d = 3 and 7 the last block is partial.
        # The all-zero and all-(d-1) secrets read the boundary rows d and 1
        # of the rotation windows.
        assert d ** (n + 1) > _GATHER_CHUNK
        rng = np.random.default_rng(d * n)
        state = random_state(d, n + 1, rng)
        for secret in (random_secret(d, n, rng), (0,) * n, (d - 1,) * n):
            assert_query_equals(state, secret, sum_chain(state, secret))

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 9)])
    def test_traced_peak_is_at_most_one_and_a_half_states(self, d, n, traced_peak):
        # One output buffer, which the result adopts, plus the index tables and one gather step.
        rng = np.random.default_rng(d + n)
        secret = tuple(int(v) for v in rng.integers(1, d, size=n))
        oracle = LinearOracle(secret, d)
        state = random_state(d, n + 1, rng)
        _, peak = traced_peak(oracle.apply_quantum, state)
        assert peak <= 1.5 * state.amplitudes.nbytes

    @pytest.mark.parametrize(
        "d,n,solve_path",
        [
            pytest.param(d, n, solve_path, id=f"fill-{d}-{n}" if solve_path else f"{d}-{n}")
            for solve_path in (False, True)
            for d, n in ((2, 20), (16, 4), (64, 3), (1024, 1))
        ],
    )
    def test_in_place_query_holds_at_most_4_mib(self, d, n, solve_path, traced_peak):
        # Beyond its result, the gather's tables and each block's index hold
        # at most one piece of index entries, whatever the register size; the
        # fill writes the register it is given, and its values hold one
        # piece.  At d = 1024 each group is one row, read from a view.
        oracle = LinearOracle(random_secret(d, n, np.random.default_rng(d)), d)
        if solve_path:
            row = _fourier_product((d - 1,), d) / np.sqrt(d**n)
            register = _Register(np.empty(d ** (n + 1), complex), d, n + 1, row)
        else:
            register = pre_query_register(d, n)
        out, peak = traced_peak(oracle.apply_quantum, register)
        if not solve_path:  # the result is a new state
            peak -= out.amplitudes.nbytes
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("d,n", [(2, 1), (5, 2), (2, 14), (3, 9), (7, 5), (129, 1)])
    def test_in_place_query_equals_out_of_place(self, d, n):
        # A solver's register: the query writes it from its row and returns
        # it, bit for bit the gather of the state it stands for, and the
        # layer rewrites it and returns it.  The last four span several blocks.
        oracle = LinearOracle(random_secret(d, n, np.random.default_rng(d * n + 1)), d)
        state = pre_query_register(d, n)
        expected = oracle.apply_quantum(state).amplitudes
        register = _Register(np.empty(d ** (n + 1), complex), d, n + 1, state.amplitudes[:d])
        assert oracle.apply_quantum(register) is register
        assert oracle.query_count == 2
        assert np.array_equal(register.amplitudes.view(np.uint64), expected.view(np.uint64))
        inverse = fourier_matrix(d).adjoint()
        layer = apply_local_gate(Statevector(expected, d, n + 1), inverse, *range(1, n + 1)).amplitudes
        assert apply_local_gate(register, inverse, *range(1, n + 1)) is register
        assert np.array_equal(register.amplitudes.view(np.uint64), layer.view(np.uint64))

    @pytest.mark.parametrize("d,n", [(3, 2), (2, 14)])
    def test_public_call_leaves_its_input_unchanged_and_read_only(self, d, n):
        rng = np.random.default_rng(d + n)
        state = random_state(d, n + 1, rng)
        before = state.amplitudes.copy()
        out = LinearOracle(tuple(int(v) for v in rng.integers(1, d, size=n)), d).apply_quantum(state)
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        assert np.array_equal(state.amplitudes, before)
        assert not state.amplitudes.flags.writeable
        assert not out.amplitudes.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_property_equals_chain_of_sum_gates(self, data):
        d, n, secret = data.draw(small_instances(), label="instance")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        state = random_state(d, n + 1, rng)
        assert_query_equals(state, secret, sum_chain(state, secret))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_property_equals_scatter_reference(self, data):
        d, n = data.draw(st.sampled_from(GATHER_SHAPES), label="shape")
        secret = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n), label="s"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        state = random_state(d, n + 1, rng)
        assert_query_equals(state, secret, scatter_reference(state, secret))

    # With gather blocks of 64 amplitudes (pieces of 32), registers of up to
    # 4096 take every case of the one split of f: one block (at most 64
    # amplitudes), whose lead is empty when d**(n+2) <= 64; and above one
    # block, blocks of groups of several rows (d = 2, 3), groups of one row
    # from a d x d table (d = 4, 5), and groups of one row from the rotations
    # view, since d**2 exceeds a piece (d >= 6).
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_property_equals_chain_of_sum_gates_in_small_blocks(self, data):
        d, n, secret = data.draw(small_instances(), label="instance")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        state = random_state(d, n + 1, rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("quditbv.oracle._GATHER_CHUNK", 64)
            assert_query_equals(state, secret, sum_chain(state, secret))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_property_equals_scatter_reference_in_small_blocks(self, data):
        d, n, secret = data.draw(small_instances(), label="instance")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        state = random_state(d, n + 1, rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("quditbv.oracle._GATHER_CHUNK", 64)
            assert_query_equals(state, secret, scatter_reference(state, secret))

    @pytest.mark.parametrize(
        "d,n",
        [(2, 5), (3, 2), (2, 7), (3, 5), (5, 3), (4, 4), (8, 2), (6, 2), (7, 3), (64, 1)],
    )
    def test_every_route_in_small_blocks(self, d, n, monkeypatch):
        # The cases above, each on its boundary secrets and a random one, for
        # the gather and for the solve's fill: one block of several groups
        # (2, 5) and (3, 2); several blocks of groups of several rows (2, 7)
        # and (3, 5); rows from a d x d table (5, 3), whose last block is
        # partial, and (4, 4); rows from the view (6, 2), (7, 3), (8, 2) and
        # (64, 1), one row per block.  (5, 3) and (6, 2) sit on each side of
        # the switch to the view.
        monkeypatch.setattr("quditbv.oracle._GATHER_CHUNK", 64)
        monkeypatch.setattr("quditbv.oracle._BLOCK", 64)
        rng = np.random.default_rng(d * 10 + n)
        state = random_state(d, n + 1, rng)
        for secret in (random_secret(d, n, rng), (0,) * n, (d - 1,) * n):
            assert_query_equals(state, secret, scatter_reference(state, secret))
            assert_query_equals(state, secret, sum_chain(state, secret))
            oracle = LinearOracle(secret, d)
            found = solve_path_query(oracle)
            expected = oracle.apply_quantum(pre_query_register(d, n)).amplitudes
            assert np.array_equal(found.view(np.uint64), expected.view(np.uint64)), secret

    def test_register_size_mismatch_rejected(self):
        oracle = LinearOracle((1, 2), 3)
        with pytest.raises(DomainError):
            oracle.apply_quantum(basis_state((0, 0), 3))  # needs n+1 = 3 qudits
        with pytest.raises(DomainError):
            oracle.apply_quantum(basis_state((0, 0, 0), 2))  # wrong dimension


class TestSolvePathQuery:
    """The solve's query writes its register from the kickback row, never built as a whole state."""

    @pytest.mark.parametrize("d,n", [(2, 14), (3, 9), (7, 5), (90, 2), (129, 1), (256, 1), (300, 1)])
    def test_equals_the_query_of_the_pre_query_state(self, d, n):
        # Bit for bit, signed zeros included.  (2, 14) is one block with an
        # empty lead, (3, 9) one block of d groups of rows, (7, 5) several;
        # (90, 2) takes groups of one row from a d x d table; (129, 1) and
        # (256, 1) are one block that reads a d x d table; (300, 1) takes
        # rows from a view.
        rng = np.random.default_rng(d * n + 2)
        for secret in (random_secret(d, n, rng), (0,) * n, (d - 1,) * n):
            oracle = LinearOracle(secret, d)
            found = solve_path_query(oracle)
            assert oracle.query_count == 1
            expected = oracle.apply_quantum(pre_query_register(d, n)).amplitudes
            assert np.array_equal(found.view(np.uint64), expected.view(np.uint64)), secret

    # With gather blocks of 64 amplitudes (pieces of 32 above one block),
    # the fill takes every route: one block with an empty lead (d**(n+2) <=
    # 64); blocks of groups from a table of d groups (d**2 within a piece);
    # and rows from a view, once d**2 exceeds a piece (d >= 6 above one
    # block).
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_property_equals_the_query_of_the_pre_query_state_in_small_blocks(self, data):
        d, n, secret = data.draw(small_instances(), label="instance")
        oracle = LinearOracle(secret, d)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("quditbv.oracle._GATHER_CHUNK", 64)
            patch.setattr("quditbv.oracle._BLOCK", 64)
            found = solve_path_query(oracle)
            assert oracle.query_count == 1
            expected = oracle.apply_quantum(pre_query_register(d, n)).amplitudes
        assert np.array_equal(found.view(np.uint64), expected.view(np.uint64))


class TestQueryAccounting:
    def test_fresh_oracle_is_zero(self):
        assert LinearOracle((1,), 2).query_count == 0

    def test_each_call_counts_once(self):
        oracle = LinearOracle((1, 2), 3)
        oracle.eval_classical((0, 0))
        assert oracle.query_count == 1
        oracle.apply_quantum(basis_state((0, 0, 0), 3))
        assert oracle.query_count == 2
        # Reading the counter is free.
        for _ in range(5):
            _ = oracle.query_count
        assert oracle.query_count == 2

    def test_quantum_count_independent_of_register_size(self):
        for n in (1, 2, 5):
            oracle = LinearOracle((1,) * n, 2)
            oracle.apply_quantum(basis_state((0,) * (n + 1), 2))
            assert oracle.query_count == 1

    def test_rejected_query_does_not_count(self):
        oracle = LinearOracle((1, 2), 3)
        with pytest.raises(DomainError):
            oracle.eval_classical((1, 3))
        assert oracle.query_count == 0


class TestLinearity:
    def test_100_seeded_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(1, 6))
            oracle = LinearOracle(random_secret(d, n, rng), d)
            x = random_secret(d, n, rng)
            y = random_secret(d, n, rng)
            combined = tuple((a + b) % d for a, b in zip(x, y))
            assert (oracle.eval_classical(x) + oracle.eval_classical(y)) % d == (
                oracle.eval_classical(combined)
            )


class TestSecretHiding:
    def test_no_public_secret_attribute(self):
        oracle = LinearOracle((1, 2), 3)
        assert not hasattr(oracle, "secret")

    def test_secret_not_in_public_dir(self):
        oracle = LinearOracle((1, 2), 3)
        assert "secret" not in [name for name in dir(oracle) if not name.startswith("_")]


class TestRandomSecret:
    def test_reproducible_and_in_range(self):
        a = random_secret(5, 7, np.random.default_rng(42))
        b = random_secret(5, 7, np.random.default_rng(42))
        assert a == b
        assert len(a) == 7
        assert all(0 <= v < 5 for v in a)

    def test_all_zero_secret_is_allowed(self):
        # Scan seeds until the all-zero string appears; it must construct.
        for seed in range(200):
            secret = random_secret(2, 2, np.random.default_rng(seed))
            if secret == (0, 0):
                LinearOracle(secret, 2)
                return
        pytest.fail("no all-zero secret in 200 seeds (statistically implausible)")
