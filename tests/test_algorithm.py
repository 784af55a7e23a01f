import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditbv import (
    CapacityError,
    ConsistencyError,
    DomainError,
    GateMatrix,
    LinearOracle,
    RunReport,
    Statevector,
    all_digit_strings,
    apply_local_gate,
    basis_state,
    encode_digits,
    fourier_basis_state,
    fourier_matrix,
    inner_product,
    kickback_state,
    marginal_probabilities,
    measure_register,
    quantum_bv_states,
    random_secret,
    run_classical_bv,
    run_quantum_bv,
    set_amplitude_budget,
    tensor,
)
from quditbv.algorithm import _fourier_product, _inverse_fourier
from quditbv.state import _BLOCK, _Register
from quditbv.verification import TOL_ALGEBRA


@pytest.fixture
def gate_builds(monkeypatch):
    """The gates built meanwhile, each counted once its ``__post_init__`` checks pass."""
    built = []
    post_init = GateMatrix.__post_init__

    def counting(gate):
        post_init(gate)
        built.append(gate)

    monkeypatch.setattr(GateMatrix, "__post_init__", counting)
    return built


def forward_layer(d, n):
    """The pre-query state as the gate route builds it: F on every qudit of |0...0, d-1>."""
    start = basis_state((0,) * n + (d - 1,), d)
    return apply_local_gate(start, fourier_matrix(d), *range(1, n + 2))


def random_state(d, k, rng):
    raw = rng.normal(size=d**k) + 1j * rng.normal(size=d**k)
    return Statevector(raw / np.linalg.norm(raw), d, k)


def pre_query_state(d, n):
    """The pre-query state as the solver builds it, a product of Fourier columns."""
    return fourier_basis_state((0,) * n + (d - 1,), d)


class TestKickbackState:
    def test_d2_is_the_minus_state(self):
        expected = np.array([1, -1]) / np.sqrt(2)
        assert np.max(np.abs(kickback_state(2).amplitudes - expected)) <= 1e-12

    def test_d3_amplitudes(self):
        omega = np.exp(2j * np.pi / 3)
        expected = np.array([1, omega**2, omega]) / np.sqrt(3)
        assert np.max(np.abs(kickback_state(3).amplitudes - expected)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_direct_amplitude_write(self, d):
        # Independent construction: amplitude of |j> is omega**(-j)/sqrt(d).
        direct = np.exp(-2j * np.pi * np.arange(d) / d) / np.sqrt(d)
        assert np.max(np.abs(kickback_state(d).amplitudes - direct)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_fourier_matrix_vector_product(self, d):
        column = np.zeros(d, dtype=complex)
        column[d - 1] = 1.0
        product = fourier_matrix(d).entries @ column
        assert np.max(np.abs(kickback_state(d).amplitudes - product)) <= 1e-12


class TestFourierBasisState:
    def test_all_zero_label_is_uniform_positive(self):
        sv = fourier_basis_state((0, 0, 0), 2)
        assert np.max(np.abs(sv.amplitudes - np.sqrt(1 / 8))) <= 1e-12

    def test_d2_single_digit_minus(self):
        expected = np.array([1, -1]) / np.sqrt(2)
        assert np.max(np.abs(fourier_basis_state((1,), 2).amplitudes - expected)) <= 1e-12

    def test_specific_amplitude_base3(self):
        # Label (1,2) against digits (2,2): dot product 6 = 0 mod 3, so the
        # amplitude is 1/3 exactly up to rounding.
        sv = fourier_basis_state((1, 2), 3)
        assert abs(sv.amplitudes[encode_digits((2, 2), 3)] - 1 / 3) <= 1e-12

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (5, 2)])
    def test_amplitudes_follow_phase_formula(self, d, n):
        rng = np.random.default_rng(d * 10 + n)
        label = random_secret(d, n, rng)
        sv = fourier_basis_state(label, d)
        for digits in all_digit_strings(d, n):
            phase = sum(l * x for l, x in zip(label, digits)) % d
            expected = np.exp(2j * np.pi * phase / d) / np.sqrt(d**n)
            assert abs(sv.amplitudes[encode_digits(digits, d)] - expected) <= 1e-12

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 10)])
    def test_traced_peak_is_at_most_three_outputs(self, d, n, traced_peak):
        label = random_secret(d, n, np.random.default_rng(d * n))
        sv, peak = traced_peak(fourier_basis_state, label, d)
        assert peak <= 3 * sv.amplitudes.nbytes

    @pytest.mark.parametrize("lead", ["random", "all zero", "kickback", "two zeros"])
    @pytest.mark.parametrize("d,n", [(2, 18), (17, 4), (16, 5), (256, 2)])
    def test_equals_the_broadcast_product_of_columns(self, d, n, lead):
        # One broadcast multiply per column at every size, from one block at
        # (256, 2) to sixteen at (16, 5); leading zeros are tiled instead,
        # which must leave every bit, signed zeros included, as it was.
        label = random_secret(d, n, np.random.default_rng(d + n))
        label = {
            "random": label,
            "all zero": (0,) * n,
            "kickback": (0,) * (n - 1) + (d - 1,),
            "two zeros": (0, 0) + label[2:],
        }[lead]
        columns = fourier_matrix(d).entries[:, label].T
        expected = columns[0]
        for column in columns[1:]:
            expected = (expected[:, None] * column).reshape(-1)
        found = fourier_basis_state(label, d).amplitudes
        assert found.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()

    @pytest.mark.parametrize("d,n", [(2, 18), (16, 4)])
    def test_labeled_pre_query_state_traced_peak_is_one_state(self, d, n, traced_peak):
        # Leading zeros are one tile of the product of the other columns.
        sv, peak = traced_peak(fourier_basis_state, (0,) * n + (d - 1,), d)
        assert peak <= 1.01 * sv.amplitudes.nbytes

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_property_equals_fourier_gates_on_the_basis_state(self, data):
        d = data.draw(st.integers(2, 64), label="d")
        n = data.draw(st.integers(1, max(k for k in range(1, 13) if d**k <= 4096)), label="n")
        label = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n), label="s"))
        gated = apply_local_gate(basis_state(label, d), fourier_matrix(d), *range(1, n + 1))
        product = fourier_basis_state(label, d)
        assert np.max(np.abs(product.amplitudes - gated.amplitudes)) <= TOL_ALGEBRA

    @pytest.mark.parametrize(
        "build,budget",
        [(lambda: fourier_basis_state((1, 2, 0), 3), 26), (lambda: kickback_state(5), 4)],
        ids=["fourier_basis_state", "kickback_state"],
    )
    def test_over_budget_rejected(self, build, budget):
        set_amplitude_budget(budget)
        try:
            with pytest.raises(CapacityError, match="Fourier basis state.*amplitudes"):
                build()
        finally:
            set_amplitude_budget(None)

    @pytest.mark.parametrize("label", [frozenset({1}), {0: 1}])
    def test_unordered_label_rejected(self, label):
        with pytest.raises(DomainError):
            fourier_basis_state(label, 3)

    def test_distinct_labels_are_orthogonal(self):
        a = fourier_basis_state((1, 0), 3)
        b = fourier_basis_state((1, 2), 3)
        assert abs(inner_product(a, b)) <= 1e-9
        assert abs(inner_product(a, a) - 1) <= 1e-9


class TestQuantumTrace:
    def test_oracle_applied_exactly_once(self):
        oracle = LinearOracle((1, 2), 3)
        quantum_bv_states(oracle)
        assert oracle.query_count == 1

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2), (5, 1), (7, 1)])
    def test_post_oracle_state_factorizes(self, d, n):
        # After the query, the register must be exactly the labeled Fourier
        # state of the secret tensored with the kickback ancilla.
        rng = np.random.default_rng(d * 37 + n)
        for _ in range(3):
            secret = random_secret(d, n, rng)
            post_oracle = LinearOracle(secret, d).apply_quantum(pre_query_state(d, n))
            expected = tensor(fourier_basis_state(secret, d), kickback_state(d))
            assert np.max(np.abs(post_oracle.amplitudes - expected.amplitudes)) <= 1e-9

    @pytest.mark.parametrize("d,n", [(2, 18), (16, 4)])
    def test_prep_traced_peak_is_one_state(self, d, n, traced_peak):
        # One tile of the kickback row: nothing beside the register but the row.
        amps, peak = traced_peak(_fourier_product, (0,) * n + (d - 1,), d)
        assert peak <= 1.01 * amps.nbytes

    @pytest.mark.parametrize("d,n", [(2, 18), (16, 4), (3, 9), (7, 1)])
    def test_prep_equals_the_labeled_fourier_state(self, d, n):
        # The Fourier gate's columns 0, ..., 0, d-1, multiplied left to right.
        columns = fourier_matrix(d).entries[:, [0] * n + [d - 1]].T
        expected = columns[0]
        for column in columns[1:]:
            expected = (expected[:, None] * column).reshape(-1)
        assert np.array_equal(_fourier_product((0,) * n + (d - 1,), d), expected)

    def test_post_fourier_is_uniform_on_inputs(self):
        amplitudes = pre_query_state(3, 2).amplitudes
        assert np.max(np.abs(np.abs(amplitudes) - np.sqrt(1 / 27))) <= 1e-12

    @pytest.mark.parametrize("d,n", [(3, 4), (2, 10), (16, 2)])
    def test_post_oracle_is_the_query_of_the_pre_query_state(self, d, n):
        # The final state is the inverse layer on the query of the pre-query state.
        secret = random_secret(d, n, np.random.default_rng(d + n))
        trace = quantum_bv_states(LinearOracle(secret, d))
        post_oracle = LinearOracle(secret, d).apply_quantum(pre_query_state(d, n))
        expected = apply_local_gate(post_oracle, fourier_matrix(d).adjoint(), *range(1, n + 1))
        assert np.array_equal(trace.final.amplitudes, expected.amplitudes)

    def test_final_is_a_plain_read_only_statevector(self):
        final = quantum_bv_states(LinearOracle((2, 0, 1), 3)).final
        assert type(final) is Statevector
        assert not final.amplitudes.flags.writeable

    def test_final_state_is_secret_tensor_ancilla(self):
        secret, d = (2, 1), 3
        trace = quantum_bv_states(LinearOracle(secret, d))
        expected = tensor(basis_state(secret, d), kickback_state(d))
        assert np.max(np.abs(trace.final.amplitudes - expected.amplitudes)) <= 1e-9

    @pytest.mark.parametrize("d,n", [(2, 22), (16, 5), (256, 2), (1024, 1)])
    def test_final_is_the_closed_form_at_the_budget_edge(self, d, n):
        # Row s of final is the kickback row and every other row is zero.  No
        # BLAS-exact reference is involved, so this holds under any kernel.
        # The off-peak rows are read a block at a time: no second register.
        secret = random_secret(d, n, np.random.default_rng(d * 1000 + n))
        rows = quantum_bv_states(LinearOracle(secret, d)).final.amplitudes.reshape(-1, d)
        peak = encode_digits(secret, d)
        assert np.max(np.abs(rows[peak] - kickback_state(d).amplitudes)) <= TOL_ALGEBRA
        step, worst = max(1, _BLOCK // d), 0.0
        for lo in range(0, len(rows), step):
            block = np.abs(rows[lo : lo + step])
            if lo <= peak < lo + step:
                block[peak - lo] = 0.0
            worst = max(worst, float(np.max(block)))
        assert worst <= TOL_ALGEBRA

    @pytest.mark.parametrize("d,n", [(16, 3), (64, 2), (2, 16)])
    def test_post_fourier_is_bit_identical_to_the_forward_layer(self, d, n):
        assert np.array_equal(pre_query_state(d, n).amplitudes, forward_layer(d, n).amplitudes)

    @pytest.mark.parametrize("d,n", [(2, 12), (3, 9), (5, 4)])
    def test_post_fourier_matches_the_forward_layer(self, d, n):
        # Here the column product rounds differently from the fused gate blocks.
        error = np.abs(pre_query_state(d, n).amplitudes - forward_layer(d, n).amplitudes)
        assert np.max(error) <= TOL_ALGEBRA

    def test_one_gate_layer_and_no_basis_state_per_solve(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)

            return wrapped

        monkeypatch.setattr(
            "quditbv.algorithm.apply_local_gate", counting("apply_local_gate", apply_local_gate)
        )
        # algorithm.py does not import basis_state; this catches a call if it ever does.
        monkeypatch.setattr(
            "quditbv.algorithm.basis_state", counting("basis_state", basis_state), raising=False
        )
        quantum_bv_states(LinearOracle((2, 0, 1), 3))
        assert calls == ["apply_local_gate"]

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 9)])
    def test_traced_peak_is_at_most_four_and_a_half_states(self, d, n, traced_peak):
        # The solve's original memory budget, measured against the final state.
        oracle = LinearOracle(random_secret(d, n, np.random.default_rng(d * n)), d)
        trace, peak = traced_peak(quantum_bv_states, oracle)
        assert peak <= 4.5 * trace.final.amplitudes.nbytes

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 9)])
    @pytest.mark.parametrize("solve", [quantum_bv_states, run_quantum_bv], ids=lambda f: f.__name__)
    def test_traced_peak_is_at_most_three_and_a_half_states(self, solve, d, n, traced_peak):
        # (3, 9) fits in one scratch block, so its layer alternates between
        # the register and a scratch block of its size: about 2x.
        oracle = LinearOracle(random_secret(d, n, np.random.default_rng(d * n)), d)
        _, peak = traced_peak(solve, oracle)
        assert peak <= 3.5 * d ** (n + 1) * np.dtype(np.complex128).itemsize

    @pytest.mark.parametrize("d,n", [(2, 18), (16, 4)])
    @pytest.mark.parametrize("solve", [quantum_bv_states, run_quantum_bv], ids=lambda f: f.__name__)
    def test_traced_peak_is_at_most_two_and_a_quarter_states(self, solve, d, n, traced_peak):
        # One register, which the query writes and the layer rewrites in
        # place, and the readout's marginal: at most about 1.4 states (see
        # the test below).
        oracle = LinearOracle(random_secret(d, n, np.random.default_rng(d * n)), d)
        _, peak = traced_peak(solve, oracle)
        assert peak <= 2.25 * d ** (n + 1) * np.dtype(np.complex128).itemsize

    @pytest.mark.parametrize("d,n", [(2, 18), (16, 4)])
    @pytest.mark.parametrize("solve", [quantum_bv_states, run_quantum_bv], ids=lambda f: f.__name__)
    def test_traced_peak_is_one_register_and_scratch(self, solve, d, n, traced_peak):
        # One register with the scratch blocks of query and layer; the
        # readout adds its marginal of d**n floats and squares no more than a
        # block at a time.
        oracle = LinearOracle(random_secret(d, n, np.random.default_rng(d * n)), d)
        _, peak = traced_peak(solve, oracle)
        marginal = 8 * d**n if solve is run_quantum_bv else 0
        assert peak <= 1.2 * d ** (n + 1) * np.dtype(np.complex128).itemsize + marginal

    @pytest.mark.parametrize("d,n", [(90, 2), (64, 2)])
    def test_traced_peak_at_mid_d_is_one_register_and_a_block(self, d, n, traced_peak):
        # The query writes the register from the kickback row, through no
        # index tables, so beside it there is the layer's scratch block.
        oracle = LinearOracle(random_secret(d, n, np.random.default_rng(d * n)), d)
        trace, peak = traced_peak(quantum_bv_states, oracle)
        assert peak <= 1.3 * trace.final.amplitudes.nbytes


class TestForwardKernelVariant:
    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (5, 1)])
    def test_forward_readout_gives_negated_digits(self, d, n):
        # Documented ambiguity: finishing with the forward kernel instead of
        # the inverse one reads out (-s_i mod d) digitwise.
        rng = np.random.default_rng(d + n)
        secret = random_secret(d, n, rng)
        post_oracle = LinearOracle(secret, d).apply_quantum(pre_query_state(d, n))
        state = post_oracle
        forward = fourier_matrix(d)
        inverse = forward.adjoint()
        for pos in range(1, n + 1):
            state = apply_local_gate(state, forward, pos)
        probs = marginal_probabilities(state, range(1, n + 1))
        hit = int(np.argmax(probs))
        negated = tuple((-s) % d for s in secret)
        assert hit == encode_digits(negated, d)
        assert probs[hit] >= 1 - 1e-9
        # And the contractual inverse kernel recovers s itself.
        state = post_oracle
        for pos in range(1, n + 1):
            state = apply_local_gate(state, inverse, pos)
        probs = marginal_probabilities(state, range(1, n + 1))
        assert int(np.argmax(probs)) == encode_digits(secret, d)


class TestRunQuantum:
    def test_known_binary_secret(self):
        report = run_quantum_bv(LinearOracle((1, 0, 1), 2))
        assert report.recovered == (1, 0, 1)
        assert report.oracle_queries == 1
        assert report.mode == "quantum"
        assert report.peak_probability >= 1 - 1e-9

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_all_zero_secret(self, d):
        report = run_quantum_bv(LinearOracle((0, 0), d))
        assert report.recovered == (0, 0)

    def test_all_nine_base3_secrets(self):
        for secret in all_digit_strings(3, 2):
            report = run_quantum_bv(LinearOracle(secret, 3))
            assert report.recovered == secret
            assert report.oracle_queries == 1

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_property_one_query_recovers_the_secret(self, data):
        d = data.draw(st.integers(2, 64), label="d")
        n = data.draw(st.integers(1, max(k for k in range(1, 12) if d ** (k + 1) <= 4096)), label="n")
        secret = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n), label="s"))
        oracle = LinearOracle(secret, d)
        report = run_quantum_bv(oracle)
        assert report.recovered == secret
        assert report.oracle_queries == oracle.query_count == 1

    def test_flat_readout_is_refused(self, monkeypatch):
        # The peak guard: a readout that does not concentrate on one string
        # raises rather than report its argmax.
        monkeypatch.setattr("quditbv.algorithm.marginal_probabilities", lambda state, qudits: np.full(4, 0.25))
        with pytest.raises(ConsistencyError, match="readout peak probability 0.25 fell below 0.999999999"):
            run_quantum_bv(LinearOracle((1, 0), 2))

    def test_one_fourier_gate_build_per_dimension(self, gate_builds):
        # Every gate build is validated in __post_init__.  The first solve at a
        # d builds the inverse gate its layer applies; later ones, at any n,
        # reuse it.
        _inverse_fourier.cache_clear()
        quantum_bv_states(LinearOracle((2, 0, 1), 3))
        assert len(gate_builds) == 1
        assert np.array_equal(gate_builds[0].entries, fourier_matrix(3).adjoint().entries)
        gate_builds.clear()
        quantum_bv_states(LinearOracle((1, 2), 3))
        assert gate_builds == []

    def test_above_side_256_every_solve_builds_its_gate(self, gate_builds):
        _inverse_fourier.cache_clear()
        for _ in range(2):
            assert run_quantum_bv(LinearOracle((299,), 300)).recovered == (299,)
        assert len(gate_builds) == 2
        info = _inverse_fourier.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_kept_gates_stay_within_16_mib(self):
        # Each kept gate has at most _BLOCK entries.
        info = _inverse_fourier.cache_info()
        assert info.maxsize * _BLOCK * np.dtype(np.complex128).itemsize <= 16 * 2**20
        for d in range(2, 21):
            quantum_bv_states(LinearOracle((1,), d))
            assert _inverse_fourier.cache_info().currsize <= info.maxsize
        assert _inverse_fourier.cache_info().currsize == info.maxsize

    def test_gate_above_side_256_holds_no_whole_gate_mask(self, traced_peak):
        # The conjugated columns and the gate's copy of them, with one block of
        # the unitarity check and one piece of the finiteness check at a time.
        gate, peak = traced_peak(_inverse_fourier.__wrapped__, 2048)
        assert peak <= 2.04 * gate.entries.nbytes

    def test_kept_gate_and_its_fused_powers_are_read_only(self):
        quantum_bv_states(LinearOracle((2, 0, 1, 1, 2), 3))
        gate = _inverse_fourier(3)
        assert not gate.entries.flags.writeable
        assert gate._powers and not any(p.flags.writeable for p in gate._powers.values())

    def test_budget_still_refuses_the_register_after_a_kept_gate(self, traced_peak):
        oracle = LinearOracle((2, 0, 1), 3)
        quantum_bv_states(oracle)  # keeps the gate at d=3
        set_amplitude_budget(3**4 - 1)

        def refuse():
            with pytest.raises(CapacityError, match="pipeline register"):
                quantum_bv_states(oracle)

        try:
            assert traced_peak(refuse)[1] < 64 * 1024
        finally:
            set_amplitude_budget(None)

    def test_report_fields(self):
        report = run_quantum_bv(LinearOracle((4, 3), 5))
        assert isinstance(report, RunReport)
        assert (report.d, report.n) == (5, 2)
        assert 0.0 <= report.peak_probability <= 1.0


class TestRunClassical:
    def test_unit_string_probes_in_order(self):
        class Recording(LinearOracle):
            def __init__(self, secret, d):
                super().__init__(secret, d)
                self.probes = []

            def eval_classical(self, x):
                self.probes.append(tuple(x))
                return super().eval_classical(x)

        oracle = Recording((1, 0, 1), 2)
        report = run_classical_bv(oracle)
        assert oracle.probes == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert report.recovered == (1, 0, 1)

    def test_single_digit(self):
        for d in (2, 3, 9):
            report = run_classical_bv(LinearOracle((d - 1,), d))
            assert report.recovered == (d - 1,)
            assert report.oracle_queries == 1

    def test_base5_example(self):
        report = run_classical_bv(LinearOracle((4, 0, 3), 5))
        assert report.recovered == (4, 0, 3)
        assert report.oracle_queries == 3
        assert report.peak_probability == 1.0
        assert report.mode == "classical"

    def test_query_count_always_n(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, 7))
            oracle = LinearOracle(random_secret(d, n, rng), d)
            report = run_classical_bv(oracle)
            assert report.oracle_queries == n == oracle.query_count


class TestMarginalsAndMeasurement:
    def test_basis_state_measures_its_digits_any_seed(self):
        state = basis_state((0, 1), 2)
        for seed in (0, 1, 99, 12345):
            outcome = measure_register(state, (1, 2), np.random.default_rng(seed))
            assert outcome.digits == (0, 1)
            assert outcome.probability == 1.0

    def test_uniform_state_empirical_frequencies(self):
        state = Statevector(np.full(4, 0.5), 2, 2)
        counts = {digits: 0 for digits in all_digit_strings(2, 2)}
        for seed in range(1000):
            outcome = measure_register(state, (1, 2), np.random.default_rng(seed))
            counts[outcome.digits] += 1
        for digits, count in counts.items():
            assert abs(count / 1000 - 0.25) <= 0.05, (digits, count)

    def test_bv_premeasurement_state_yields_secret(self):
        secret, d = (2, 0, 1), 3
        trace = quantum_bv_states(LinearOracle(secret, d))
        probs = marginal_probabilities(trace.final, range(1, 4))
        assert probs[encode_digits(secret, d)] >= 1 - 1e-9
        outcome = measure_register(trace.final, range(1, 4), np.random.default_rng(0))
        assert outcome.digits == secret

    def test_marginal_reorders_with_given_positions(self):
        state = basis_state((0, 1), 2)
        forward_order = marginal_probabilities(state, (1, 2))
        reversed_order = marginal_probabilities(state, (2, 1))
        assert forward_order[encode_digits((0, 1), 2)] == 1.0
        assert reversed_order[encode_digits((1, 0), 2)] == 1.0

    def test_single_qudit_marginal(self):
        trace = quantum_bv_states(LinearOracle((1, 2), 3))
        first = marginal_probabilities(trace.final, (1,))
        assert abs(first[1] - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "kept",
        [range(1, 11), (1, 2, 3), (1, 2, 5, 4), (1, 3), (2, 1), (11,), range(11, 0, -1)],
        ids=str,
    )
    def test_blocked_marginal_equals_the_whole_register_sum(self, kept):
        # 3**11 amplitudes span three blocks.  A marginal whose kept qudits
        # open with 1, 2, ... is summed a block of rows at a time, and each
        # sum must be the one over the whole register's |psi|^2, bit for bit.
        state = random_state(3, 11, np.random.default_rng(311))
        keep_axes = [q - 1 for q in kept]
        other_axes = [ax for ax in range(11) if ax not in keep_axes]
        cube = (np.abs(state.amplitudes) ** 2).reshape((3,) * 11)
        expected = cube.transpose(keep_axes + other_axes).reshape(3 ** len(keep_axes), -1).sum(axis=1)
        assert np.array_equal(marginal_probabilities(state, kept), expected)

    def test_unnormalized_state_raises_consistency_error(self):
        state = Statevector(np.full(4, 0.5) * 1.5, 2, 2)
        with pytest.raises(ConsistencyError):
            marginal_probabilities(state, (1, 2))

    def test_nan_amplitude_raises_consistency_error(self):
        # A register is not validated, and a NaN total compares False with
        # any tolerance, so the check must fail unless the total is close.
        amps = np.full(8, np.sqrt(0.125), dtype=complex)
        amps[5] = np.nan
        with pytest.raises(ConsistencyError):
            marginal_probabilities(_Register(amps, 2, 3, None), (1, 2))

    def test_invalid_positions_rejected(self):
        state = basis_state((0, 1), 2)
        with pytest.raises(DomainError):
            marginal_probabilities(state, None)
        with pytest.raises(DomainError):
            marginal_probabilities(state.amplitudes, (1,))
        with pytest.raises(DomainError):
            marginal_probabilities(state, (1, 1))
        with pytest.raises(DomainError):
            marginal_probabilities(state, (0,))
        with pytest.raises(DomainError):
            marginal_probabilities(state, ())
        with pytest.raises(DomainError):
            marginal_probabilities(state, [1.9, 2])
        with pytest.raises(DomainError):
            marginal_probabilities(state, [True, 2])

    def test_positions_from_an_iterator_are_read_once(self):
        state = basis_state((0, 1), 2)
        outcome = measure_register(state, iter([1, 2]), np.random.default_rng(0))
        assert outcome.digits == (0, 1)

    def test_measurement_is_deterministic_given_seed(self):
        raw = np.array([0.5, 0.5, 0.5, 0.5]) * np.exp(1j * np.arange(4))
        state = Statevector(raw, 2, 2)
        outcomes = [
            measure_register(state, (1, 2), np.random.default_rng(7)).digits for _ in range(5)
        ]
        assert len(set(outcomes)) == 1
