import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quditbv import (
    DEFAULT_AMPLITUDE_BUDGET,
    CapacityError,
    DomainError,
    GateMatrix,
    LinearOracle,
    Statevector,
    all_digit_strings,
    amplitude_budget,
    apply_local_gate,
    apply_sum,
    basis_state,
    decode_index,
    dense_operator,
    encode_digits,
    fourier_matrix,
    gate_equivalence_check,
    inner_product,
    marginal_probabilities,
    measure_register,
    quantum_bv_states,
    random_secret,
    run_classical_bv,
    run_quantum_bv,
    set_amplitude_budget,
    sum_matrix,
    tensor,
)
from quditbv.cli import emit_report
from quditbv.state import _BLOCK, _Owned


class TestEncodeDecode:
    def test_binary_reading(self):
        assert encode_digits((1, 0, 1), 2) == 5

    def test_zero_string(self):
        assert encode_digits((0, 0), 3) == 0

    def test_positional_formula_base3(self):
        # 2*3 + 1 by hand.
        assert encode_digits((2, 1), 3) == 7

    def test_decode_binary(self):
        assert decode_index(5, 2, 3) == (1, 0, 1)

    def test_decode_zero(self):
        assert decode_index(0, 5, 2) == (0, 0)

    def test_decode_base3(self):
        assert decode_index(7, 3, 2) == (2, 1)

    @pytest.mark.parametrize("d,n", [(2, 3), (2, 13), (3, 8), (5, 5), (7, 4), (10, 4)])
    def test_round_trip_exhaustive(self, d, n):
        # Exhaustive bijection check for d**n up to 10**4.
        assert d**n <= 10**4
        for i in range(d**n):
            assert encode_digits(decode_index(i, d, n), d) == i

    @given(data=st.data())
    def test_property_round_trip(self, data):
        d = data.draw(st.integers(2, 64), label="d")
        n = data.draw(st.integers(1, max(k for k in range(1, 12) if d ** (k + 1) <= 4096)), label="n")
        x = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n), label="x"))
        assert decode_index(encode_digits(x, d), d, n) == x

    def test_all_digit_strings_matches_index_order(self):
        for i, digits in enumerate(all_digit_strings(3, 3)):
            assert encode_digits(digits, 3) == i

    @pytest.mark.parametrize("bad", [(2,), (-1,), (0, 2), None, {1: "a", 0: "b"}, {0, 1}])
    def test_encode_rejects_out_of_range_digits(self, bad):
        with pytest.raises(DomainError):
            encode_digits(bad, 2)

    def test_encode_rejects_empty(self):
        with pytest.raises(DomainError):
            encode_digits((), 3)

    @pytest.mark.parametrize("bad_index", [-1, 9, 100])
    def test_decode_rejects_out_of_range_index(self, bad_index):
        with pytest.raises(DomainError):
            decode_index(bad_index, 3, 2)

    def test_non_integer_digits_rejected(self):
        with pytest.raises(DomainError):
            encode_digits((1.0, 0), 2)


class TestStatevector:
    def test_length_must_match(self):
        with pytest.raises(DomainError):
            Statevector(np.zeros(5), 2, 2)

    def test_non_finite_rejected(self):
        amps = np.array([np.nan, 0, 0, 0], dtype=complex)
        with pytest.raises(DomainError):
            Statevector(amps, 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("index", [100_000, 3**11 - 1], ids=["middle block", "last block"])
    def test_non_finite_rejected_past_the_first_block(self, bad, index):
        # 3**11 amplitudes span three blocks, the last one partial.
        amps = np.zeros(3**11, dtype=complex)
        assert _BLOCK < index < 3**11 and 3**11 > 2 * _BLOCK
        amps[index] = bad
        with pytest.raises(DomainError, match="finite"):
            Statevector(amps, 3, 11)
        with pytest.raises(DomainError, match="finite"):
            Statevector(_Owned(amps), 3, 11)

    def test_amplitudes_are_read_only_copies(self):
        raw = np.zeros(4, dtype=complex)
        raw[0] = 1.0
        sv = Statevector(raw, 2, 2)
        raw[0] = 0.5  # mutating the source must not reach the state
        assert sv.amplitudes[0] == 1.0
        with pytest.raises(ValueError):
            sv.amplitudes[0] = 0.0

    def test_public_construction_copies_even_a_complex_array(self):
        raw = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
        sv = Statevector(raw, 2, 2)
        assert not np.shares_memory(sv.amplitudes, raw)
        raw[0] = 0.5
        assert sv.amplitudes[0] == 1.0
        assert raw.flags.writeable

    def test_owned_array_is_adopted_without_a_copy(self):
        amps = np.zeros(4, dtype=np.complex128)
        sv = Statevector(_Owned(amps), 2, 2)
        assert sv.amplitudes is amps
        assert not amps.flags.writeable

    @pytest.mark.parametrize("amps", [np.zeros(3, complex), np.zeros((2, 2), complex), np.full(4, np.inf + 0j)])
    def test_owned_array_is_still_validated(self, amps):
        with pytest.raises(DomainError):
            Statevector(_Owned(amps), 2, 2)

    def test_bad_dimension_rejected(self):
        with pytest.raises(DomainError):
            Statevector(np.ones(1), 1, 1)

    def test_non_numeric_amplitudes_rejected(self):
        with pytest.raises(DomainError, match="complex numbers"):
            Statevector(["a", "b"], 2, 1)


class TestBasisState:
    def test_all_zeros(self):
        sv = basis_state((0, 0, 0), 2)
        assert sv.size == 8
        assert sv.amplitudes[0] == 1.0
        assert np.count_nonzero(sv.amplitudes) == 1

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_top_digit(self, d):
        sv = basis_state((d - 1,), d)
        assert sv.amplitudes[d - 1] == 1.0
        assert np.count_nonzero(sv.amplitudes) == 1

    def test_positional_encoding(self):
        sv = basis_state((1, 2), 3)
        assert sv.amplitudes[5] == 1.0
        assert np.count_nonzero(sv.amplitudes) == 1

    def test_capacity_guard(self):
        set_amplitude_budget(16)
        try:
            with pytest.raises(CapacityError):
                basis_state((0,) * 5, 2)
        finally:
            set_amplitude_budget(None)


class TestBudgetInput:
    @pytest.fixture(autouse=True)
    def restore_default(self):
        yield
        set_amplitude_budget(None)

    @pytest.mark.parametrize("bad", [2.7, True, "16", 1])
    def test_malformed_override_rejected(self, monkeypatch, bad):
        monkeypatch.delenv("QUDITBV_AMPLITUDE_BUDGET", raising=False)
        with pytest.raises(DomainError):
            set_amplitude_budget(bad)
        assert amplitude_budget() == DEFAULT_AMPLITUDE_BUDGET

    @pytest.mark.parametrize("raw", ["abc", "2.7", "1"])
    def test_malformed_environment_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("QUDITBV_AMPLITUDE_BUDGET", raw)
        with pytest.raises(DomainError, match="QUDITBV_AMPLITUDE_BUDGET"):
            amplitude_budget()

    def test_environment_value_used(self, monkeypatch):
        monkeypatch.setenv("QUDITBV_AMPLITUDE_BUDGET", " 64 ")
        assert amplitude_budget() == 64


class TestStateBudget:
    """A caller's amplitude array counts against the budget before it is copied, as a gate's does."""

    @pytest.fixture(autouse=True)
    def budget_of_16(self):
        set_amplitude_budget(16)
        yield
        set_amplitude_budget(None)

    def test_over_budget_state_rejected(self):
        with pytest.raises(CapacityError, match="state.*amplitudes"):
            Statevector(np.ones(32) / np.sqrt(32), 2, 5)

    def test_over_budget_state_refused_before_its_copy(self, traced_peak):
        amps = np.zeros(2**18)  # 4 MiB as complex128

        def refuse():
            with pytest.raises(CapacityError, match="state.*amplitudes"):
                Statevector(amps, 2, 18)

        assert traced_peak(refuse)[1] < 64 * 1024

    def test_state_within_budget_builds(self):
        assert Statevector(np.ones(16) / 4, 2, 4).size == 16


class TestTensor:
    def test_basis_pair(self):
        out = tensor(basis_state((0,), 2), basis_state((1,), 2))
        assert out.size == 4
        assert out.amplitudes[1] == 1.0
        assert np.count_nonzero(out.amplitudes) == 1

    def test_distributes_over_superposition(self):
        plus = Statevector(np.array([1, 1]) / np.sqrt(2), 2, 1)
        out = tensor(plus, basis_state((0,), 2))
        expected = np.array([1, 0, 1, 0]) / np.sqrt(2)
        assert np.allclose(out.amplitudes, expected, atol=1e-15)

    def test_matches_encode_digits(self):
        out = tensor(basis_state((2,), 3), basis_state((1,), 3))
        assert out.amplitudes[encode_digits((2, 1), 3)] == 1.0

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DomainError):
            tensor(basis_state((0,), 2), basis_state((0,), 3))

    def test_norm_multiplicativity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a_raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            b_raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            a = Statevector(a_raw, 2, 2)
            b = Statevector(b_raw, 2, 1)
            assert abs(tensor(a, b).norm() - a.norm() * b.norm()) <= 1e-12


class TestInnerProduct:
    def test_normalized_basis_state(self):
        v = basis_state((0,), 2)
        assert inner_product(v, v) == 1 + 0j

    def test_orthogonal_basis_states(self):
        assert inner_product(basis_state((0,), 3), basis_state((1,), 3)) == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            inner_product(basis_state((0,), 2), basis_state((0, 0), 2))
        with pytest.raises(DomainError):
            inner_product(basis_state((0,), 2), basis_state((0,), 3))

    def test_conjugate_symmetry_and_self_positivity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = Statevector(rng.normal(size=9) + 1j * rng.normal(size=9), 3, 2)
            b = Statevector(rng.normal(size=9) + 1j * rng.normal(size=9), 3, 2)
            ab = inner_product(a, b)
            ba = inner_product(b, a)
            assert abs(ab - np.conj(ba)) <= 1e-12
            aa = inner_product(a, a)
            assert abs(aa.imag) <= 1e-12
            assert aa.real >= 0


WRONG_TYPES = {
    "apply_sum": lambda s: apply_sum(np.zeros(4), 1, 2),
    "apply_quantum": lambda s: LinearOracle((1,), 2).apply_quantum(np.zeros(4)),
    "tensor": lambda s: tensor(s, np.zeros(4)),
    "inner_product": lambda s: inner_product(s, [1, 0, 0, 0]),
    "dense_operator": lambda s: dense_operator([(np.eye(2), (1,))], 1),
    "dense_operator positions": lambda s: dense_operator([(fourier_matrix(2), 1)], 2),
    "dense_operator pair": lambda s: dense_operator([(fourier_matrix(2),)], 2),
    "dense_operator ops": lambda s: dense_operator(5, 2),
    "random_secret rng": lambda s: random_secret(2, 3, 5),
    "run_quantum_bv": lambda s: run_quantum_bv((1, 0)),
    "run_classical_bv": lambda s: run_classical_bv((1, 0)),
    "quantum_bv_states": lambda s: quantum_bv_states((1, 0)),
    "measure_register qudits": lambda s: measure_register(s, 3, np.random.default_rng(0)),
    "measure_register rng": lambda s: measure_register(s, (1,), 0),
    "apply_local_gate": lambda s: apply_local_gate(s, np.eye(2), 1),
    "marginal_probabilities": lambda s: marginal_probabilities(np.zeros(4), (1,)),
    "emit_report reports": lambda s: emit_report([1], "json", (1,), 0),
    "emit_report string": lambda s: emit_report("abc", "json", (1,), 0),
    "emit_report secret": lambda s: emit_report([], "csv", 5, 0),
}


@pytest.mark.parametrize("call", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_public_entries_reject_a_wrong_type(call):
    with pytest.raises(DomainError, match="must be a"):
        call(basis_state((0, 1), 2))


# Each row is a public entry, the error it raises and the message it matches.
# The unordered rows pass a set or a mapping where order is data: the readout
# reads the secret off the qudits in the order given.
REJECTED = {
    "non-finite gate entries": (
        DomainError, "finite", lambda s: GateMatrix(np.array([[np.nan, 0], [0, 1]]), 2)
    ),
    "two-qudit gate to apply_local_gate": (
        DomainError, "single-qudit", lambda s: apply_local_gate(s, sum_matrix(2), 1)
    ),
    "empty ops": (DomainError, "at least one gate", lambda s: dense_operator([], 2)),
    "mixed gate dimensions": (
        DomainError,
        "mixed gate dimensions",
        lambda s: dense_operator([(fourier_matrix(2), (1,)), (fourier_matrix(3), (1,))], 1),
    ),
    "gate span against position count": (
        DomainError, "spans 2 qudits", lambda s: dense_operator([(sum_matrix(2), (1,))], 2)
    ),
    "gate equivalence over the dense limit": (
        CapacityError, "dim <= 256", lambda s: gate_equivalence_check(2, 9)
    ),
    "marginal_probabilities set": (
        DomainError, "ordered sequence", lambda s: marginal_probabilities(s, {2, 1})
    ),
    "marginal_probabilities dict": (
        DomainError, "ordered sequence", lambda s: marginal_probabilities(s, {2: 0, 1: 0})
    ),
    "measure_register set": (
        DomainError, "ordered sequence", lambda s: measure_register(s, {2, 1}, np.random.default_rng(0))
    ),
    "dense_operator set positions": (
        DomainError, "ordered sequence", lambda s: dense_operator([(sum_matrix(2), {2, 1})], 2)
    ),
    "emit_report set secret": (
        DomainError, "ordered sequence", lambda s: emit_report([], "json", {1, 0}, 0)
    ),
}


@pytest.mark.parametrize("error,match,call", REJECTED.values(), ids=REJECTED)
def test_public_entries_reject_malformed_input(error, match, call):
    with pytest.raises(error, match=match):
        call(basis_state((0, 1), 2))


class TestNumpyIntegers:
    def test_numpy_integers_are_read_as_plain_ints(self):
        oracle = LinearOracle(np.array([1, 2]), np.int64(3))
        assert type(oracle.d) is int and oracle.d == 3
        digits = decode_index(np.int64(5), 3, np.int32(2))
        assert digits == (1, 2) and all(type(v) is int for v in digits)
        state, gate = basis_state((0, 1), 2), fourier_matrix(2)
        found = apply_local_gate(state, gate, np.int64(1)).amplitudes
        assert np.array_equal(found, apply_local_gate(state, gate, 1).amplitudes)
