"""Tour of the qudit gate set: Fourier matrices and the SUM permutation.

Run from the repository root:

    python3 demos/gate_tour.py
"""

import numpy as np

from quditbv import (
    apply_local_gate,
    apply_sum,
    basis_state,
    decode_index,
    dense_operator,
    fourier_matrix,
    sum_matrix,
)


def show_fourier_matrices():
    print("=== Fourier gates ===")
    hadamard = fourier_matrix(2)
    print("d=2 reduces to the Hadamard:")
    print(np.round(hadamard.entries * np.sqrt(2), 6), "\n  (times 1/sqrt(2))")

    for d in (3, 5):
        gate = fourier_matrix(d)
        inverse = gate.adjoint()
        roundtrip = gate.entries @ inverse.entries
        print(
            f"d={d}: {d}x{d} unitary, forward@inverse deviates from identity by "
            f"{np.max(np.abs(roundtrip - np.eye(d))):.2e}"
        )


def show_sum_action(d=3):
    print(f"\n=== SUM gate action table (d={d}) ===")
    print("input |i j>  ->  output |i (i+j) mod d>")
    for i in range(d):
        for j in range(d):
            out = apply_sum(basis_state((i, j), d), control=1, target=2)
            hit = decode_index(int(np.argmax(np.abs(out.amplitudes))), d, 2)
            print(f"  |{i}{j}>  ->  |{hit[0]}{hit[1]}>")


def show_dense_cross_check():
    print("\n=== Dense operator cross-check ===")
    d = 3
    ops = [(fourier_matrix(d), (1,)), (sum_matrix(d), (1, 2)), (fourier_matrix(d), (2,))]
    dense = dense_operator(ops, 2)
    state = basis_state((2, 1), d)
    # The same three-gate circuit by strided application, no matrix formed.
    strided = apply_local_gate(state, fourier_matrix(d), 1)
    strided = apply_sum(strided, 1, 2)
    strided = apply_local_gate(strided, fourier_matrix(d), 2)
    expected = dense.entries @ state.amplitudes
    print(
        "strided application vs explicit 9x9 matrix product: max difference "
        f"{np.max(np.abs(strided.amplitudes - expected)):.2e}"
    )


if __name__ == "__main__":
    show_fourier_matrices()
    show_sum_action()
    show_dense_cross_check()
