import numpy as np
import pytest

from quditbv import (
    CapacityError,
    CheckResult,
    DomainError,
    LinearOracle,
    all_digit_strings,
    decode_index,
    dense_operator,
    dense_reference_bv,
    encode_digits,
    fourier_matrix,
    gate_equivalence_check,
    gram_check,
    kickback_check,
    marginal_probabilities,
    pipeline_check,
    quantum_bv_states,
    root_of_unity_check,
    root_of_unity_sum,
    run_all_checks,
)
from quditbv.verification import TOL_ALGEBRA


class TestRootOfUnitySum:
    def test_k_zero(self):
        assert abs(root_of_unity_sum(3, 0) - 3) <= 1e-12

    def test_k_one_vanishes(self):
        assert abs(root_of_unity_sum(3, 1)) <= 1e-12

    def test_multiple_of_d_gives_d(self):
        # k = 8 is twice d = 4: the delta must be read mod d.
        assert abs(root_of_unity_sum(4, 8) - 4) <= 1e-12

    def test_direct_summation_full_grid(self):
        for d in range(2, 17):
            for k in range(3 * d + 1):
                expected = d if k % d == 0 else 0
                assert abs(root_of_unity_sum(d, k) - expected) <= 1e-12, (d, k)

    def test_grid_check_result(self):
        result = root_of_unity_check(max_d=16)
        assert isinstance(result, CheckResult)
        assert result.passed
        assert result.max_abs_error <= 1e-12

    @pytest.mark.parametrize("max_d", [2.5, True, 1])
    def test_grid_check_rejects_bad_max_d(self, max_d):
        with pytest.raises(DomainError, match="max_d"):
            root_of_unity_check(max_d=max_d)


class TestGramCheck:
    def test_qubit_single(self):
        result = gram_check(2, 1)
        assert result.passed
        assert result.max_abs_error <= 1e-12

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (5, 2), (2, 4)])
    def test_orthonormal_families(self, d, n):
        result = gram_check(d, n)
        assert result.passed
        assert result.max_abs_error <= 1e-9

    def test_boundary_family_is_allowed(self):
        # 5**4 = 625 sits exactly at the size limit.
        assert gram_check(5, 4).passed

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            gram_check(3, 6)  # 729 states exceed the 625 limit

    def test_gram_against_direct_summation(self):
        # Independent route: inner products summed digit string by digit
        # string, never touching the vectorized state constructor.
        d, n = 3, 2
        omega = np.exp(2j * np.pi / d)
        labels = list(all_digit_strings(d, n))
        worst = 0.0
        for s in labels:
            for t in labels:
                total = 0j
                for x in labels:
                    phase_s = sum(a * b for a, b in zip(s, x)) % d
                    phase_t = sum(a * b for a, b in zip(t, x)) % d
                    total += np.conj(omega**phase_s) * omega**phase_t
                total /= d**n
                expected = 1.0 if s == t else 0.0
                worst = max(worst, abs(total - expected))
        assert worst <= 1e-9
        assert gram_check(d, n).max_abs_error <= 1e-9


class TestKickbackCheck:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_passes_for_small_dimensions(self, d):
        result = kickback_check(d)
        assert result.passed
        assert result.max_abs_error <= 1e-12

    def test_d2_minus_state_sign_flip(self):
        # The d=2 case is CNOT sending |1>|-> to -|1>|->; recompute directly.
        from quditbv import Statevector, apply_sum

        minus = np.array([1, -1]) / np.sqrt(2)
        joint = np.zeros(4, dtype=complex)
        joint[2:] = minus  # |1> on the control
        after = apply_sum(Statevector(joint, 2, 2), 1, 2)
        assert np.max(np.abs(after.amplitudes + joint)) <= 1e-12

    def test_zero_control_leaves_target_unchanged(self):
        from quditbv import Statevector, apply_sum, kickback_state

        for d in (2, 5, 7):
            phi = kickback_state(d).amplitudes
            joint = np.zeros(d * d, dtype=complex)
            joint[:d] = phi  # control digit 0
            after = apply_sum(Statevector(joint, d, 2), 1, 2)
            assert np.max(np.abs(after.amplitudes - joint)) <= 1e-12


class TestDenseReference:
    def test_single_qubit_secret_reads_one(self):
        final = dense_reference_bv((1,), 2)
        probs = marginal_probabilities(final, (1,))
        assert probs[1] >= 1 - 1e-9

    def test_two_qubit_readout_every_secret(self):
        for secret in all_digit_strings(2, 2):
            final = dense_reference_bv(secret, 2)
            probs = marginal_probabilities(final, (1, 2))
            assert probs[encode_digits(secret, 2)] >= 1 - 1e-9

    def test_base3_single_digit_every_secret(self):
        for secret in all_digit_strings(3, 1):
            final = dense_reference_bv(secret, 3)
            probs = marginal_probabilities(final, (1,))
            assert probs[encode_digits(secret, 3)] >= 1 - 1e-9

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            dense_reference_bv((1,) * 8, 2)  # 2**9 = 512 > 256

    def test_reproducible_to_the_last_bit(self):
        a = dense_reference_bv((1, 2), 3).amplitudes
        b = dense_reference_bv((1, 2), 3).amplitudes
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (5, 2), (16, 1)])
    def test_matches_oracle_built_column_by_column(self, d, n):
        forward = fourier_matrix(d)
        inverse = forward.adjoint()
        spread = dense_operator([(forward, (p,)) for p in range(1, n + 2)], n + 1).entries
        readout = dense_operator([(inverse, (p,)) for p in range(1, n + 1)], n + 1).entries
        size = d ** (n + 1)
        for secret in [(0,) * n, (d - 1,) * n, tuple(range(1, n + 1))]:
            secret = tuple(s % d for s in secret)
            oracle = np.zeros((size, size))
            for col in range(size):
                digits = decode_index(col, d, n + 1)
                f = sum(s * x for s, x in zip(secret, digits[:n])) % d
                oracle[encode_digits(digits[:n] + ((digits[n] + f) % d,), d), col] = 1.0
            initial = np.zeros(size)
            initial[d - 1] = 1.0
            expected = readout @ oracle @ spread @ initial
            got = dense_reference_bv(secret, d).amplitudes
            assert np.max(np.abs(got - expected)) <= TOL_ALGEBRA


class TestPipelineAgreement:
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1), (15, 1)])
    def test_strided_matches_dense(self, d, n):
        result = pipeline_check(d, n)
        assert result.passed
        assert result.max_abs_error <= 1e-10

    def test_agreement_per_secret(self):
        for secret in all_digit_strings(3, 2):
            dense = dense_reference_bv(secret, 3)
            trace = quantum_bv_states(LinearOracle(secret, 3))
            assert np.max(np.abs(dense.amplitudes - trace.final.amplitudes)) <= 1e-10


class TestGateEquivalence:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_100_seeded_random_states(self, d, k):
        result = gate_equivalence_check(d, k, samples=100)
        assert result.passed
        assert result.max_abs_error <= 1e-12

    def test_same_seed_same_error(self):
        a = gate_equivalence_check(3, 2, samples=10, seed=123)
        b = gate_equivalence_check(3, 2, samples=10, seed=123)
        assert a.max_abs_error == b.max_abs_error

    @pytest.mark.parametrize("k", [1.9, True])
    def test_non_integer_register_size_rejected(self, k):
        with pytest.raises(DomainError):
            gate_equivalence_check(2, k, samples=1)

    @pytest.mark.parametrize("samples", [0, -1, 1.5, True])
    def test_bad_sample_count_rejected(self, samples):
        # With no samples the check would compare nothing and still report a pass.
        with pytest.raises(DomainError, match="samples"):
            gate_equivalence_check(2, 1, samples=samples)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            gate_equivalence_check(2, 1, samples=1, seed=seed)


class TestRunAllChecks:
    def test_every_row_passes(self):
        results = run_all_checks()
        assert len(results) >= 30
        for result in results:
            assert isinstance(result, CheckResult)
            assert result.passed, result
            assert result.name
            assert result.details
