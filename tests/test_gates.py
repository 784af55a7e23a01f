import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditbv import (
    CapacityError,
    DomainError,
    GateMatrix,
    LinearOracle,
    Statevector,
    apply_local_gate,
    apply_sum,
    basis_state,
    decode_index,
    dense_operator,
    encode_digits,
    fourier_matrix,
    omega_powers,
    run_quantum_bv,
    set_amplitude_budget,
    sum_matrix,
)
from quditbv.gates import _BLOCK, FUSED_SIDE_LIMIT, _layer_passes
from quditbv.state import _one_blas_thread, _Register
from quditbv.verification import TOL_ALGEBRA


def random_state(d, k, rng):
    raw = rng.normal(size=d**k) + 1j * rng.normal(size=d**k)
    return Statevector(raw / np.linalg.norm(raw), d, k)


def random_unitary(d, rng, span=1):
    side = d**span
    raw = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    return GateMatrix(np.linalg.qr(raw)[0], d)


def kron_lift(matrix, pos, d, k):
    """Independent dense lift used as the reference in this file."""
    out = np.eye(1)
    for q in range(1, k + 1):
        out = np.kron(out, matrix if q == pos else np.eye(d))
    return out


def whole_register_passes(state, gate, positions):
    """The passes of ``_layer_passes``, each one ``np.matmul`` over the whole register.

    BLAS runs on one thread, as it does for every product of a layer, since
    some OpenBLAS kernels split a product's sums differently over threads.
    """
    amps = state.amplitudes
    with _one_blas_thread:
        for entries, right in _layer_passes(gate, positions, state.qudit_count):
            side = entries.shape[0]
            if right == 1:
                amps = np.matmul(amps.reshape(-1, side), entries.T).reshape(-1)
            else:
                amps = np.matmul(entries, amps.reshape(-1, side, right)).reshape(-1)
    return amps


def register_of(state):
    """A writeable copy of ``state`` as the register a solver owns, which kernels rewrite in place."""
    return _Register(state.amplitudes.copy(), state.d, state.qudit_count, None)


# Layers whose passes take every route through ``_run_passes``.
LAYER_CASES = [
    (16, 5, [1, 2, 3, 4]),
    (16, 5, [4, 3, 2, 1]),
    (2, 19, list(range(1, 19))),
    (3, 13, list(range(1, 13))),
    (3, 10, list(range(1, 10))),
    (16, 5, [1, 3, 1, 5, 2, 1]),
]
LAYER_IDS = [
    "wide then narrow",
    "narrow then wide",
    "fused, right == 1 first",
    "chunks of uneven width",
    "one block",
    "repeated positions",
]


def enumerated_lift(matrix, positions, d, k):
    """Independent dense lift of a gate of any span, one basis column at a time."""
    m = len(positions)
    out = np.zeros((d**k, d**k), dtype=complex)
    for col in range(d**k):
        digits = decode_index(col, d, k)
        gate_col = encode_digits([digits[p - 1] for p in positions], d)
        for gate_row in range(d**m):
            row_digits = list(digits)
            for p, v in zip(positions, decode_index(gate_row, d, m)):
                row_digits[p - 1] = v
            out[encode_digits(row_digits, d), col] = matrix[gate_row, gate_col]
    return out


class TestGateMatrix:
    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            GateMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]), 2)

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            GateMatrix(np.ones((2, 3)), 2)

    def test_rejects_side_not_power_of_d(self):
        with pytest.raises(DomainError):
            GateMatrix(np.eye(3), 2)

    def test_rejects_non_numeric_entries(self):
        with pytest.raises(DomainError, match="complex numbers"):
            GateMatrix([["a", "b"], ["c", "d"]], 2)

    def test_rejects_ragged_entries(self):
        with pytest.raises(DomainError, match="complex numbers"):
            GateMatrix([[1, 0], [0]], 2)

    def test_entries_read_only(self):
        for gate in (fourier_matrix(3), fourier_matrix(3).adjoint()):
            with pytest.raises(ValueError):
                gate.entries[0, 0] = 0.0

    @pytest.mark.parametrize("row", [0, 217, 218, 299])
    def test_rejects_a_defect_in_any_row_block(self, row):
        # Side 300 checks rows 0..217, then 218..299; a defect in either block is found.
        entries = fourier_matrix(300).entries.copy()
        entries[row] *= 1.5  # |row|**2 == 2.25; the rows stay orthogonal
        with pytest.raises(DomainError, match=r"not unitary: max \|U U\* - I\| entry is 1\.250e\+00"):
            GateMatrix(entries, 300)

    def test_rejects_a_nan_in_the_last_entry_past_the_first_piece(self):
        # 90,000 entries are more than a block, so they are checked in pieces.
        entries = np.eye(300, dtype=complex)
        entries[-1, -1] = np.nan
        assert entries.size > _BLOCK
        with pytest.raises(DomainError, match="gate entries must be finite"):
            GateMatrix(entries, 300)

    def test_unitarity_check_holds_one_block_of_rows(self, traced_peak):
        # Two 16 MiB matrices (the columns and the gate's copy) and a block of
        # at most _BLOCK entries, not the whole d x d product.
        gate, peak = traced_peak(fourier_matrix, 1024)
        assert peak <= 2.2 * gate.entries.nbytes

    def test_qudit_span(self):
        assert fourier_matrix(5).qudit_span == 1
        assert sum_matrix(5).qudit_span == 2

    @pytest.mark.parametrize("d", range(2, 6))
    def test_adjoint_of_sum_inverts_it_exactly(self, d):
        gate = sum_matrix(d)
        adjoint = gate.adjoint()
        assert adjoint.qudit_span == 2
        assert np.array_equal(adjoint.entries @ gate.entries, np.eye(d * d))


class TestFourierMatrix:
    def test_d2_is_hadamard(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.max(np.abs(fourier_matrix(2).entries - expected)) <= 1e-15

    def test_d3_entry_1_2(self):
        omega = np.exp(2j * np.pi / 3)
        assert abs(fourier_matrix(3).entries[1, 2] - omega**2 / np.sqrt(3)) <= 1e-15

    def test_forward_times_inverse_is_identity_d4(self):
        product = fourier_matrix(4).entries @ fourier_matrix(4).adjoint().entries
        assert np.max(np.abs(product - np.eye(4))) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 12))
    def test_inverse_is_conjugate_transpose(self, d):
        forward = fourier_matrix(d).entries
        inverse = fourier_matrix(d).adjoint().entries
        assert np.array_equal(inverse, forward.conj().T)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_entries_follow_root_of_unity_formula(self, d):
        entries = fourier_matrix(d).entries
        for row in range(d):
            for col in range(d):
                expected = np.exp(2j * np.pi * ((row * col) % d) / d) / np.sqrt(d)
                assert abs(entries[row, col] - expected) <= 1e-15


class TestApplyLocalGate:
    def test_fourier_everywhere_gives_uniform_superposition(self):
        state = basis_state((0, 0), 2)
        gate = fourier_matrix(2)
        for pos in (1, 2):
            state = apply_local_gate(state, gate, pos)
        assert np.max(np.abs(state.amplitudes - 0.25**0.5)) <= 1e-12

    def test_identity_gate_is_bit_for_bit_noop(self):
        rng = np.random.default_rng(3)
        identity = GateMatrix(np.eye(3), 3)
        for k in (1, 2, 3):
            state = random_state(3, k, rng)
            for pos in range(1, k + 1):
                out = apply_local_gate(state, identity, pos)
                assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_fourier_at_position_1_of_20_base3(self):
        # Expected amplitudes written out by hand: digit 2 feeds column 2,
        # so |s0> picks up omega**(2s) / sqrt(3) at s = 0, 1, 2.
        out = apply_local_gate(basis_state((2, 0), 3), fourier_matrix(3), 1)
        expected = np.zeros(9, dtype=complex)
        expected[[0, 3, 6]] = np.exp(2j * np.pi * np.array([0, 2, 4]) / 3) / np.sqrt(3)
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12

    @pytest.mark.parametrize("d,k", [(2, 1), (2, 3), (3, 2), (4, 3), (5, 2)])
    def test_matches_the_dense_lift_on_random_states(self, d, k):
        rng = np.random.default_rng(100 * d + k)
        gate = fourier_matrix(d)
        for _ in range(10):
            state = random_state(d, k, rng)
            pos = int(rng.integers(1, k + 1))
            out = apply_local_gate(state, gate, pos)
            expected = kron_lift(gate.entries, pos, d, k) @ state.amplitudes
            assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        for d, k in [(2, 4), (3, 3), (5, 2)]:
            state = random_state(d, k, rng)
            out = apply_local_gate(state, fourier_matrix(d), k)
            assert abs(out.norm() - state.norm()) <= 1e-12

    def test_inverse_undoes_forward_on_every_qudit(self):
        rng = np.random.default_rng(23)
        for d, k in [(2, 3), (3, 2), (7, 2)]:
            state = random_state(d, k, rng)
            roundtrip = state
            for pos in range(1, k + 1):
                roundtrip = apply_local_gate(roundtrip, fourier_matrix(d), pos)
            for pos in range(1, k + 1):
                roundtrip = apply_local_gate(roundtrip, fourier_matrix(d).adjoint(), pos)
            assert np.max(np.abs(roundtrip.amplitudes - state.amplitudes)) <= 1e-9

    def test_position_out_of_range(self):
        state = basis_state((0, 0), 2)
        gate = fourier_matrix(2)
        with pytest.raises(DomainError):
            apply_local_gate(state, gate, 0)
        with pytest.raises(DomainError):
            apply_local_gate(state, gate, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            apply_local_gate(basis_state((0, 0), 2), fourier_matrix(3), 1)
        with pytest.raises(DomainError):
            apply_local_gate(basis_state((0, 0), 3), np.eye(3), 1)
        with pytest.raises(DomainError):
            apply_local_gate(np.eye(9)[0], fourier_matrix(3), 1)

    def test_multi_position_call_equals_chain_of_single_calls(self):
        rng = np.random.default_rng(31)
        for d, k in [(2, 5), (3, 3), (4, 2), (5, 3)]:
            state = random_state(d, k, rng)
            gate = random_unitary(d, rng)
            positions = [int(p) for p in rng.integers(1, k + 1, size=2 * k)]
            chained = state
            for pos in positions:
                chained = apply_local_gate(chained, gate, pos)
            layered = apply_local_gate(state, gate, *positions)
            assert np.array_equal(layered.amplitudes, chained.amplitudes)

    @pytest.mark.parametrize("d,k", [(d, k) for d in range(2, 6) for k in range(1, 5) if d**k <= 256])
    def test_layer_matches_dense_operator(self, d, k):
        # Positions 1 and k take the left == 1 and right == 1 branches.
        rng = np.random.default_rng(10 * d + k)
        gate = random_unitary(d, rng)
        positions = [1, k, *(int(p) for p in rng.integers(1, k + 1, size=k))]
        state = random_state(d, k, rng)
        out = apply_local_gate(state, gate, *positions)
        dense = dense_operator([(gate, (p,)) for p in positions], k)
        expected = dense.entries @ state.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) <= TOL_ALGEBRA

    def test_one_position_traced_peak_is_one_buffer(self, traced_peak):
        # One pass into one buffer, which the result adopts without a copy.
        state = random_state(2, 16, np.random.default_rng(16))
        out, peak = traced_peak(apply_local_gate, state, fourier_matrix(2), 9)
        assert peak <= 1.25 * out.amplitudes.nbytes

    def test_input_amplitudes_unchanged(self):
        state = random_state(3, 3, np.random.default_rng(5))
        before = state.amplitudes.copy()
        apply_local_gate(state, fourier_matrix(3), 1, 2, 3, 2)
        assert np.array_equal(state.amplitudes, before)

    @pytest.mark.parametrize("bad", [0, 3, 1.9, True])
    def test_bad_position_in_more_rejected(self, bad):
        state = basis_state((0, 0), 2)
        with pytest.raises(DomainError):
            apply_local_gate(state, fourier_matrix(2), 1, bad)
        with pytest.raises(DomainError):
            apply_local_gate(state, fourier_matrix(2), 1, 2, bad, 1)

    @pytest.mark.parametrize("d,k,positions", LAYER_CASES, ids=LAYER_IDS)
    def test_layer_is_bit_identical_to_whole_register_passes(self, d, k, positions):
        state = random_state(d, k, np.random.default_rng(d + k))
        gate = fourier_matrix(d).adjoint()
        expected = whole_register_passes(state, gate, positions)
        assert np.array_equal(apply_local_gate(state, gate, *positions).amplitudes, expected)

    @pytest.mark.parametrize("d,k,positions", LAYER_CASES, ids=LAYER_IDS)
    def test_in_place_layer_is_bit_identical_to_whole_register_passes(self, d, k, positions):
        # In place, the first pass too runs by row blocks or column chunks.
        state = random_state(d, k, np.random.default_rng(d + k))
        gate = fourier_matrix(d).adjoint()
        expected = whole_register_passes(state, gate, positions)
        register = register_of(state)
        assert apply_local_gate(register, gate, *positions) is register
        assert np.array_equal(register.amplitudes, expected)

    @pytest.mark.parametrize("d", [2, 3, 16, 256])
    def test_in_place_layer_equals_out_of_place_at_n_1(self, d):
        # The solver's layer at n = 1 is a single pass, which needs a scratch
        # block in place; at d = 256 the register is exactly one block.
        state = random_state(d, 2, np.random.default_rng(d))
        gate = fourier_matrix(d).adjoint()
        expected = apply_local_gate(state, gate, 1)
        register = register_of(state)
        assert apply_local_gate(register, gate, 1) is register
        assert np.array_equal(register.amplitudes, expected.amplitudes)

    @pytest.mark.parametrize("d,k,positions", [(3, 3, [1, 2, 3, 2]), (16, 5, [1, 2, 3, 4])])
    def test_public_call_leaves_its_input_unchanged_and_read_only(self, d, k, positions):
        state = random_state(d, k, np.random.default_rng(d * k))
        before = state.amplitudes.copy()
        out = apply_local_gate(state, fourier_matrix(d), *positions)
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        assert np.array_equal(state.amplitudes, before)
        assert not state.amplitudes.flags.writeable
        assert not out.amplitudes.flags.writeable

    def test_last_column_joins_the_chunk_before(self, monkeypatch):
        # With a block one amplitude short of 65 columns of d=65, the pass at
        # qudit 1 runs in place by chunks of 64 columns, and 65**2 % 64 == 1:
        # the last chunk holds 65 columns, more than the block.
        monkeypatch.setattr("quditbv.gates._BLOCK", 65 * 65 - 1)
        state = random_state(65, 3, np.random.default_rng(65))
        gate = fourier_matrix(65)
        expected = whole_register_passes(state, gate, [2, 1])
        assert np.array_equal(apply_local_gate(state, gate, 2, 1).amplitudes, expected)

    @pytest.mark.parametrize("d,k", [(2, 20), (16, 5)])
    def test_layer_traced_peak_is_one_register_and_a_block(self, d, k, traced_peak):
        # One output register, rewritten in place through a block of 1/16 of it.
        state = random_state(d, k, np.random.default_rng(d * k))
        assert state.size >= 4 * _BLOCK
        out, peak = traced_peak(apply_local_gate, state, fourier_matrix(d), *range(1, k))
        assert peak <= 1.1 * out.amplitudes.nbytes

    def test_in_place_layer_of_wide_chunks_traces_one_chunk_per_worker(self, traced_peak):
        # At d=600, n=1 each chunk of 600 x 64 columns is wider than a piece,
        # and each of at most two workers holds one chunk's spare block.
        state = random_state(600, 2, np.random.default_rng(600))
        gate = fourier_matrix(600).adjoint()
        register = register_of(state)
        out, peak = traced_peak(apply_local_gate, register, gate, 1)
        assert out is register
        assert peak <= 2 * 600 * 64 * 16 + 64 * 1024

    @pytest.mark.parametrize("d,k", [(2, 7), (3, 5), (4, 4), (5, 4)])
    def test_fused_layer_equals_chain_of_single_calls(self, d, k):
        # Blocks of adjacent qudits form at these shapes, and a fused block
        # rounds differently from the chain.
        rng = np.random.default_rng(10 * d + k)
        gate = random_unitary(d, rng)
        state = random_state(d, k, rng)
        everything = list(range(1, k + 1))
        layers = [
            everything,
            [int(p) for p in rng.permutation(everything)],
            everything[:-1],  # the last qudit joins the last block as identity
            [p for p in everything if p != k // 2 + 1],  # two runs
        ]
        for positions in layers:
            chained = state
            for pos in positions:
                chained = apply_local_gate(chained, gate, pos)
            layered = apply_local_gate(state, gate, *positions)
            assert np.max(np.abs(layered.amplitudes - chained.amplitudes)) <= TOL_ALGEBRA

    def test_fused_layer_with_no_identity_pad(self):
        # At d=2, k=8 the five qudits after position 3 would pad the block to
        # side 64, above isqrt(2**8) = 16, so positions 1..3 are one side-8
        # pass with right == 32 and no identity.
        rng = np.random.default_rng(28)
        gate = random_unitary(2, rng)
        state = random_state(2, 8, rng)
        passes = _layer_passes(gate, [1, 2, 3], 8)
        assert [(matrix.shape[0], right) for matrix, right in passes] == [(8, 32)]
        chained = state
        for pos in (1, 2, 3):
            chained = apply_local_gate(chained, gate, pos)
        dense = dense_operator([(gate, (pos,)) for pos in (1, 2, 3)], 8).entries @ state.amplitudes
        layered = apply_local_gate(state, gate, 1, 2, 3).amplitudes
        assert np.max(np.abs(layered - chained.amplitudes)) <= TOL_ALGEBRA
        assert np.max(np.abs(layered - dense)) <= TOL_ALGEBRA

    @pytest.mark.parametrize("d,k", [(2, 23), (3, 14), (4, 11), (5, 10)])
    def test_pipeline_layers_are_few_fused_passes(self, d, k):
        # Both Fourier layers of the solver at the budget edge: the pass at
        # the last qudit takes no batch of tiny products (right == 1).
        gate = fourier_matrix(d)
        per_block = max(m for m in range(1, k) if d**m <= FUSED_SIDE_LIMIT)
        for last in (k, k - 1):
            passes = _layer_passes(gate, list(range(1, last + 1)), k)
            assert len(passes) == -(-k // per_block)
            assert passes[0][1] == 1
            assert all(matrix.shape[0] <= FUSED_SIDE_LIMIT for matrix, _ in passes)

    @pytest.mark.parametrize(
        "d,k,positions",
        [(2, 5, [1]), (2, 5, [1, 2, 1]), (2, 3, [1, 2, 3]), (6, 4, [1, 2, 3, 4]), (16, 2, [1, 2])],
        ids=["one position", "repeated position", "tiny register", "d=6", "d=16"],
    )
    def test_calls_that_do_not_fuse_keep_the_exact_chain(self, d, k, positions):
        gate = fourier_matrix(d)
        passes = _layer_passes(gate, positions, k)
        assert [right for _, right in passes] == [d ** (k - p) for p in positions]
        assert all(matrix is gate.entries for matrix, _ in passes)

    def test_fused_powers_are_built_once_per_gate_and_read_only(self, monkeypatch):
        gate = fourier_matrix(2)
        first = _layer_passes(gate, list(range(1, 11)), 11)
        assert gate._powers and all(not p.flags.writeable for p in gate._powers.values())
        monkeypatch.setattr("numpy.kron", None)  # a second build would fail
        again = _layer_passes(gate, list(range(1, 11)), 11)
        assert [r for _, r in first] == [r for _, r in again]
        assert all(a is b for (a, _), (b, _) in zip(first, again))
        assert not fourier_matrix(2)._powers  # another gate keeps its own

    def test_register_at_the_budget_still_solves(self):
        # A fused gate never holds more entries than the register has amplitudes.
        set_amplitude_budget(2**10)
        try:
            secret = (1, 0, 1, 1, 0, 0, 1, 0, 1)
            assert run_quantum_bv(LinearOracle(secret, 2)).recovered == secret
        finally:
            set_amplitude_budget(None)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_property_matches_dense_operator(self, data):
        d = data.draw(st.integers(2, 16), label="d")
        max_k = max(k for k in range(1, 9) if d**k <= 256)
        k = data.draw(st.integers(1, max_k), label="k")
        positions = data.draw(st.lists(st.integers(1, k), min_size=1, max_size=6), label="positions")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        gate = random_unitary(d, rng)
        state = random_state(d, k, rng)
        out = apply_local_gate(state, gate, *positions)
        dense = dense_operator([(gate, (p,)) for p in positions], k)
        expected = dense.entries @ state.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) <= TOL_ALGEBRA


class TestApplySum:
    def test_cnot_flip(self):
        out = apply_sum(basis_state((1, 1), 2), 1, 2)
        assert out.amplitudes[encode_digits((1, 0), 2)] == 1.0
        assert np.count_nonzero(out.amplitudes) == 1

    def test_mod_3_addition(self):
        # (2 + 2) mod 3 = 1.
        out = apply_sum(basis_state((2, 2), 3), 1, 2)
        assert out.amplitudes[encode_digits((2, 1), 3)] == 1.0

    def test_control_digit_zero_is_noop(self):
        for d in (2, 3, 5):
            rng = np.random.default_rng(d)
            raw = np.zeros(d * d, dtype=complex)
            # Support only on control digit 0.
            raw[:d] = rng.normal(size=d) + 1j * rng.normal(size=d)
            state = Statevector(raw / np.linalg.norm(raw), d, 2)
            out = apply_sum(state, 1, 2)
            assert np.array_equal(out.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("d,k,control,target", [(2, 2, 1, 2), (3, 2, 2, 1), (3, 3, 3, 1), (5, 3, 2, 3)])
    def test_exhaustive_basis_action(self, d, k, control, target):
        # Independent reference: recompute the permutation digit by digit.
        from quditbv import all_digit_strings, decode_index

        for digits in all_digit_strings(d, k):
            out = apply_sum(basis_state(digits, d), control, target)
            hit = decode_index(int(np.argmax(np.abs(out.amplitudes))), d, k)
            expected = list(digits)
            expected[target - 1] = (digits[control - 1] + digits[target - 1]) % d
            assert hit == tuple(expected)
            assert np.count_nonzero(out.amplitudes) == 1

    def test_d_applications_restore_exactly(self):
        rng = np.random.default_rng(9)
        for d, k, control, target in [(2, 2, 1, 2), (3, 3, 3, 2), (5, 2, 2, 1)]:
            state = random_state(d, k, rng)
            out = state
            for _ in range(d):
                out = apply_sum(out, control, target)
            assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_amplitudes_carried_unchanged(self):
        # A permutation moves amplitudes without touching their values.
        rng = np.random.default_rng(31)
        state = random_state(3, 2, rng)
        out = apply_sum(state, 1, 2)
        assert np.array_equal(np.sort_complex(state.amplitudes), np.sort_complex(out.amplitudes))

    def test_control_equals_target_rejected(self):
        with pytest.raises(DomainError):
            apply_sum(basis_state((0, 0), 2), 1, 1)


class TestDenseOperator:
    def test_single_fourier_on_one_qudit_is_the_matrix_itself(self):
        gate = fourier_matrix(5)
        dense = dense_operator([(gate, (1,))], 1)
        assert np.array_equal(dense.entries, gate.entries)

    def test_hadamard_tensor_square(self):
        gate = fourier_matrix(2)
        dense = dense_operator([(gate, (1,)), (gate, (2,))], 2)
        assert np.max(np.abs(np.abs(dense.entries) - 0.5)) <= 1e-12
        signs = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
        assert np.max(np.abs(dense.entries - signs)) <= 1e-12

    def test_sum_gate_is_a_permutation_matrix(self):
        dense = dense_operator([(sum_matrix(3), (1, 2))], 2).entries
        assert dense.shape == (9, 9)
        assert np.all(np.isin(dense.real, (0.0, 1.0)))
        assert np.max(np.abs(dense.imag)) == 0.0
        assert np.array_equal(dense.sum(axis=0), np.ones(9))
        assert np.array_equal(dense.sum(axis=1), np.ones(9))
        # Independent enumeration of |i>|j> -> |i>|(i+j) mod 3>.
        for i in range(3):
            for j in range(3):
                col = i * 3 + j
                row = i * 3 + (i + j) % 3
                assert dense[row, col] == 1.0

    def test_two_qudit_lift_respects_position_order(self):
        # SUM with control at 2 and target at 1 on a 2-qudit register.
        dense = dense_operator([(sum_matrix(3), (2, 1))], 2).entries
        for i in range(3):  # control digit, position 2
            for j in range(3):  # target digit, position 1
                col = encode_digits((j, i), 3)
                row = encode_digits(((i + j) % 3, i), 3)
                assert dense[row, col] == 1.0

    def test_application_order_is_left_to_right(self):
        rng = np.random.default_rng(41)
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(raw)
        other = GateMatrix(q, 2)
        hadamard = fourier_matrix(2)
        dense = dense_operator([(hadamard, (1,)), (other, (1,))], 1)
        assert np.max(np.abs(dense.entries - other.entries @ hadamard.entries)) <= 1e-12

    def test_capacity_limit(self):
        gate = fourier_matrix(2)
        with pytest.raises(CapacityError):
            dense_operator([(gate, (1,))], 9)  # 512 > 256

    @pytest.mark.parametrize("d", [2, 3])
    def test_two_qudit_unitary_at_every_ordered_pair(self, d):
        # A random two-qudit unitary is not a product and not a permutation,
        # so every entry of the lift is tested, not just where SUM has ones.
        rng = np.random.default_rng(d)
        gate = random_unitary(d, rng, span=2)
        for first in range(1, 4):
            for second in range(1, 4):
                if first == second:
                    continue
                dense = dense_operator([(gate, (first, second))], 3).entries
                expected = enumerated_lift(gate.entries, (first, second), d, 3)
                assert np.max(np.abs(dense - expected)) <= TOL_ALGEBRA

    def test_three_qudit_gate_out_of_order(self):
        gate = random_unitary(2, np.random.default_rng(7), span=3)
        dense = dense_operator([(gate, (3, 1, 2))], 4).entries
        expected = enumerated_lift(gate.entries, (3, 1, 2), 2, 4)
        assert np.max(np.abs(dense - expected)) <= TOL_ALGEBRA

    @pytest.mark.parametrize("span,positions", [(2, (2, 2)), (3, (1, 3, 1))])
    def test_duplicate_positions_rejected(self, span, positions):
        gate = random_unitary(2, np.random.default_rng(span), span=span)
        with pytest.raises(DomainError, match="distinct"):
            dense_operator([(gate, positions)], 3)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_property_sequences_with_sum_match_strided_route(self, data):
        d = data.draw(st.integers(2, 16), label="d")
        max_k = max(k for k in range(2, 9) if d**k <= 256)
        k = data.draw(st.integers(2, max_k), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        state = random_state(d, k, rng)
        strided, ops = state, []
        for _ in range(data.draw(st.integers(1, 6), label="op count")):
            if data.draw(st.booleans(), label="sum"):
                pair = st.lists(st.integers(1, k), min_size=2, max_size=2, unique=True)
                control, target = data.draw(pair, label="control, target")
                ops.append((sum_matrix(d), (control, target)))
                strided = apply_sum(strided, control, target)
            else:
                pos = data.draw(st.integers(1, k), label="position")
                gate = random_unitary(d, rng)
                ops.append((gate, (pos,)))
                strided = apply_local_gate(strided, gate, pos)
        expected = dense_operator(ops, k).entries @ state.amplitudes
        assert np.max(np.abs(strided.amplitudes - expected)) <= TOL_ALGEBRA

    def test_result_is_validated_unitary(self):
        dense = dense_operator([(fourier_matrix(3), (2,)), (sum_matrix(3), (1, 2))], 2)
        defect = dense.entries @ dense.entries.conj().T - np.eye(9)
        assert np.max(np.abs(defect)) <= 1e-12


class TestGateBudget:
    @pytest.fixture(autouse=True)
    def budget_of_16(self):
        set_amplitude_budget(16)
        yield
        set_amplitude_budget(None)

    @pytest.mark.parametrize(
        "build,what",
        [
            (lambda: fourier_matrix(5), "Fourier gate"),
            (lambda: sum_matrix(3), "SUM gate"),
            (lambda: GateMatrix(np.eye(5), 5), "gate matrix"),
            (lambda: omega_powers(17), "roots of unity"),
        ],
        ids=["fourier_matrix", "sum_matrix", "GateMatrix", "omega_powers"],
    )
    def test_gate_matrix_over_budget_rejected(self, build, what):
        with pytest.raises(CapacityError, match=f"{what}.*amplitudes"):
            build()

    def test_oversized_gate_refused_before_its_copy(self, traced_peak):
        entries = np.eye(512)  # 4 MiB as complex128

        def refuse():
            with pytest.raises(CapacityError, match="gate matrix"):
                GateMatrix(entries, 2)

        assert traced_peak(refuse)[1] < 64 * 1024

    def test_dense_operator_refused_before_its_lifts(self, traced_peak):
        set_amplitude_budget(1000)
        ops = [(fourier_matrix(2), (1,))] * 3

        def refuse():
            with pytest.raises(CapacityError, match="dense operator"):
                dense_operator(ops, 8)

        assert traced_peak(refuse)[1] < 64 * 1024

    def test_adjoint_over_budget_rejected(self):
        gate = fourier_matrix(4)  # side**2 == 16 fits
        set_amplitude_budget(15)
        with pytest.raises(CapacityError, match="gate matrix of side 4"):
            gate.adjoint()

    def test_gates_within_budget_build(self):
        assert fourier_matrix(4).qudit_span == 1
        assert sum_matrix(2).qudit_span == 2
