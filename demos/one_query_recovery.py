"""Recover a hidden digit string with a single oracle query.

A secret string s with digits in [0, d) hides behind an oracle computing
f(x) = (s . x) mod d.  The quantum solver prepares a superposition over all
inputs, queries once, and reads the whole string off an inverse Fourier
transform.  This script runs the full pipeline for several register shapes
and shows the intermediate states for a small instance.

    python3 demos/one_query_recovery.py
"""

import numpy as np

from quditbv import (
    LinearOracle,
    fourier_basis_state,
    marginal_probabilities,
    quantum_bv_states,
    random_secret,
    run_quantum_bv,
)


def walkthrough(d=3, secret=(1, 2)):
    print(f"=== Walkthrough: d={d}, secret {secret} ===")
    oracle = LinearOracle(secret, d)
    trace = quantum_bv_states(oracle)
    n = len(secret)
    # The pre-query state depends on (d, n) alone; the trace does not keep it.
    pre_query = fourier_basis_state((0,) * n + (d - 1,), d).amplitudes

    print("after the Fourier column every input amplitude has magnitude "
          f"{np.abs(pre_query[0]):.4f} (uniform superposition)")
    phases = np.angle(trace.post_oracle.amplitudes / pre_query)
    print("the single oracle query only rotated phases: max magnitude change "
          f"{np.max(np.abs(np.abs(trace.post_oracle.amplitudes) - np.abs(pre_query))):.2e}, "
          f"phase range {phases.min():+.3f}..{phases.max():+.3f} rad")
    probs = marginal_probabilities(trace.final, range(1, n + 1))
    print(f"after the inverse Fourier readout, input-register probabilities: {np.round(probs, 6)}")
    print(f"all weight sits on index {int(np.argmax(probs))}, which decodes to {secret}")
    print(f"oracle queries used: {oracle.query_count}\n")


def survey():
    print("=== Survey across register shapes ===")
    print(f"{'d':>3} {'n':>3} {'secret':>12} {'recovered':>12} {'queries':>8} {'peak':>10}")
    rng = np.random.default_rng(2025)
    for d, n in [(2, 4), (3, 3), (4, 2), (5, 3), (7, 2), (11, 1)]:
        secret = random_secret(d, n, rng)
        rep = run_quantum_bv(LinearOracle(secret, d))
        sec = "-".join(map(str, secret))
        rec = "-".join(map(str, rep.recovered))
        print(f"{d:>3} {n:>3} {sec:>12} {rec:>12} {rep.oracle_queries:>8} {rep.peak_probability:>10.6f}")


if __name__ == "__main__":
    walkthrough()
    survey()
