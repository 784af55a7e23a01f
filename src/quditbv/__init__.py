"""Exact statevector simulation of d-level registers and hidden-string recovery.

The package simulates small registers of qudits (d-level quantum systems)
with dense complex amplitude arrays, provides the Fourier and SUM gates, and
implements two solvers for a hidden linear digit string behind a counting
oracle: a quantum one that needs a single query and a classical baseline that
needs one query per digit.  A verification module recomputes everything
through an independent dense-matrix route.
"""

from .algorithm import (
    MeasurementOutcome,
    QuantumTrace,
    RunReport,
    fourier_basis_state,
    kickback_state,
    marginal_probabilities,
    measure_register,
    quantum_bv_states,
    run_classical_bv,
    run_quantum_bv,
)
from .budget import (
    DEFAULT_AMPLITUDE_BUDGET,
    amplitude_budget,
    check_capacity,
    set_amplitude_budget,
)
from .errors import CapacityError, ConsistencyError, DomainError, QuditError
from .gates import (
    GateMatrix,
    apply_local_gate,
    apply_sum,
    dense_operator,
    fourier_matrix,
    omega_powers,
    sum_matrix,
)
from .oracle import LinearOracle, random_secret
from .state import (
    Statevector,
    all_digit_strings,
    basis_state,
    decode_index,
    encode_digits,
    inner_product,
    tensor,
)
from .verification import (
    CheckResult,
    dense_reference_bv,
    gate_equivalence_check,
    gram_check,
    kickback_check,
    pipeline_check,
    root_of_unity_check,
    root_of_unity_sum,
    run_all_checks,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CheckResult",
    "ConsistencyError",
    "DEFAULT_AMPLITUDE_BUDGET",
    "DomainError",
    "GateMatrix",
    "LinearOracle",
    "MeasurementOutcome",
    "QuantumTrace",
    "QuditError",
    "RunReport",
    "Statevector",
    "all_digit_strings",
    "amplitude_budget",
    "apply_local_gate",
    "apply_sum",
    "basis_state",
    "check_capacity",
    "decode_index",
    "dense_operator",
    "dense_reference_bv",
    "encode_digits",
    "fourier_basis_state",
    "fourier_matrix",
    "gate_equivalence_check",
    "gram_check",
    "inner_product",
    "kickback_check",
    "kickback_state",
    "marginal_probabilities",
    "measure_register",
    "omega_powers",
    "pipeline_check",
    "quantum_bv_states",
    "random_secret",
    "root_of_unity_check",
    "root_of_unity_sum",
    "run_all_checks",
    "run_classical_bv",
    "run_quantum_bv",
    "set_amplitude_budget",
    "sum_matrix",
    "tensor",
    "__version__",
]
