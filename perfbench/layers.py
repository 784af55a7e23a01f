"""Per-layer metrics: what is traced, what each metric should move, and how
each is computed from the spans of one traced run.

Scopes: "per op" metrics are totals over the traced measurement loop divided
by its operations (one solve on the edge workloads, one full instance on
small_batch); "per solve" metrics use only the spans under
``run_quantum_bv``; "per selfcheck" and "per cli call" metrics divide by the
``run_all_checks()`` calls and in-process ``cli.main`` captures.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Span, Target, Tracer


def _local_gate_bytes(state, *args, **kwargs) -> int:
    # One complex128 read and one write per amplitude: 32 * d**k bytes.
    return 32 * state.amplitudes.size


TARGETS = [
    Target("algorithm.run_quantum_bv", "algorithm.solve", memory=True),
    Target("algorithm.quantum_bv_states", "algorithm.quantum_bv_states"),
    Target("algorithm.marginal_probabilities", "algorithm.marginal_probabilities"),
    Target("algorithm.measure_register", "algorithm.measure_register"),
    Target("gates.apply_local_gate", "gates.apply_local_gate", _local_gate_bytes),
    Target("gates.fourier_matrix", "gates.fourier_matrix"),
    Target("gates.apply_sum", "gates.apply_sum"),
    Target("gates.dense_operator", "gates.dense_operator"),
    Target("oracle.LinearOracle.apply_quantum", "oracle.apply_quantum"),
    Target("state.Statevector.__post_init__", "state.statevector_init"),
    Target("state.basis_state", "state.basis_state"),
    Target("verification.dense_reference_bv", "verification.dense_reference_bv"),
    Target("verification.pipeline_check", "verification.pipeline_check"),
    Target("verification.gram_check", "verification.gram_check"),
    Target("verification.gate_equivalence_check", "verification.gate_equivalence_check"),
    Target("cli.run_experiment", "cli.run_experiment"),
    Target("cli.emit_report", "cli.emit_report"),
    Target("budget.check_capacity", "budget.check_capacity"),
]

EDGE = "solve_s_min on edge_wide and edge_qubit"
SMALL_GATES = "instances_per_s_peak and the printed solve_s_p99 on small_batch"
SUM_GATES = "selfcheck_s_min today; edge_* once the oracle is SUM powers"
# name -> (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "algorithm.fwd_layer_s": ("s", "lower", EDGE + "; part of the solve span before the oracle"),
    "algorithm.inv_layer_s": ("s", "lower", EDGE + "; part of the solve span after the oracle"),
    "algorithm.readout_s": ("s", "lower", EDGE + ", by about 1%"),
    "algorithm.solve_s": ("s", "lower", EDGE + "; traced solve time, the base of the coverage"),
    "algorithm.layer_coverage_frac": ("ratio", "higher", "none; share of the traced solve the "
                                      "fwd, oracle, inv and readout parts account for"),
    "algorithm.measure_register_s": ("s", "lower", "instances_per_s_peak on small_batch"),
    "algorithm.fwd_layer_peak_mib": ("MiB", "lower", "peak_rss_mib on edge_wide and edge_qubit"),
    "algorithm.inv_layer_peak_mib": ("MiB", "lower", "peak_rss_mib on edge_wide and edge_qubit"),
    "algorithm.solve_peak_mib": ("MiB", "lower", "peak_rss_mib on edge_wide and edge_qubit"),
    "gates.apply_local_gate_calls": ("count", "lower", EDGE + "; not small_batch"),
    "gates.apply_local_gate_s": ("s", "lower", EDGE + "; self time; not small_batch"),
    "gates.local_gate_bytes": ("B", "lower", EDGE + "; computed as 32*d**k per call"),
    "gates.local_gate_gbps": ("GB/s", "higher", EDGE + "; computed bytes over self time"),
    "gates.fourier_matrix_calls": ("count", "lower", SMALL_GATES),
    "gates.fourier_matrix_s": ("s", "lower", SMALL_GATES),
    "gates.apply_sum_calls": ("count", "lower", SUM_GATES),
    "gates.apply_sum_s": ("s", "lower", SUM_GATES),
    "gates.dense_operator_s": ("s", "lower", "selfcheck_s_min"),
    "oracle.apply_quantum_s": ("s", "lower", "solve_s_min on edge_qubit, a little on edge_wide"),
    "oracle.apply_quantum_peak_mib": ("MiB", "lower", "peak_rss_mib on edge_qubit"),
    "oracle.queries_per_solve": ("count", "lower", "none; an exact count that must stay 1"),
    "state.statevector_init_calls": ("count", "lower",
                                     EDGE + "; instances_per_s_peak on small_batch"),
    "state.statevector_init_s": ("s", "lower", EDGE + "; instances_per_s_peak on small_batch"),
    "state.basis_state_s": ("s", "lower", EDGE + "; instances_per_s_peak on small_batch"),
    "verification.dense_reference_bv_s": ("s", "lower", "instances_per_s_peak on small_batch"),
    "verification.pipeline_check_s": ("s", "lower", "selfcheck_s_min"),
    "verification.gram_check_s": ("s", "lower", "selfcheck_s_min"),
    "verification.gate_equivalence_check_s": ("s", "lower", "selfcheck_s_min"),
    "cli.import_s": ("s", "lower", "cli_run_s_min and setup_s"),
    "cli.run_experiment_s": ("s", "lower", "cli_run_s_min"),
    "cli.emit_report_s": ("s", "lower", "cli_run_s_min"),
    "budget.check_capacity_calls": ("count", "lower", "none predicted"),
    "trace.overhead_frac": ("ratio", "lower", "none; 1 - traced over untraced instances_per_s"),
}


class _Index:
    """Spans of one traced run grouped by request kind and name."""

    def __init__(self, tracer: Tracer):
        kinds = {}
        self.children: dict[int, list[Span]] = defaultdict(list)
        for span in tracer.spans:
            if span.parent is None:
                kinds[span.request] = span.name.removeprefix("request.")
            else:
                self.children[span.parent].append(span)
        self.requests = defaultdict(int)
        self.by = defaultdict(list)  # (kind, name) -> spans
        for span in tracer.spans:
            kind = kinds.get(span.request, "")
            if span.parent is None:
                self.requests[kind] += 1
            else:
                self.by[(kind, span.name)].append(span)

    def per(self, kind: str, name: str, value) -> float:
        count = self.requests[kind]
        return sum(value(s) for s in self.by[(kind, name)]) / count if count else 0.0

    def child(self, span: Span, name: str) -> Span | None:
        return next((c for c in self.children[span.id] if c.name == name), None)


SOLVE_SCOPE = {"algorithm.fwd_layer_s", "algorithm.inv_layer_s", "algorithm.readout_s",
               "algorithm.solve_s", "algorithm.layer_coverage_frac",
               "algorithm.fwd_layer_peak_mib", "algorithm.inv_layer_peak_mib",
               "algorithm.solve_peak_mib", "oracle.apply_quantum_s",
               "oracle.apply_quantum_peak_mib", "oracle.queries_per_solve"}
SELFCHECK_SCOPE = {"gates.apply_sum_calls", "gates.apply_sum_s", "gates.dense_operator_s",
                   "verification.pipeline_check_s", "verification.gram_check_s",
                   "verification.gate_equivalence_check_s"}
CLI_SCOPE = {"cli.run_experiment_s", "cli.emit_report_s"}


def layer_metrics(tracer: Tracer, untraced_ops_per_s: float, traced_ops_per_s: float,
                  cli_import_s: float) -> tuple[dict[str, float], dict[str, int]]:
    """The value of every ``LAYER_METRICS`` entry and the number of samples
    behind each; the caller measures ``cli.import_s``."""
    ix = _Index(tracer)
    calls = lambda s: 1  # noqa: E731
    total = lambda s: s.duration  # noqa: E731
    own = lambda s: s.self_s  # noqa: E731
    m = {}

    fwd = inv = readout = oracle_s = solve = 0.0
    queries = 0
    peaks = defaultdict(float)
    solves = ix.by[("op", "algorithm.solve")]
    for s in solves:
        solve += s.duration
        peaks["solve"] = max(peaks["solve"], tracer.peak_mib(s.mark0, s.mark1))
        marginal = ix.child(s, "algorithm.marginal_probabilities")
        readout += marginal.duration if marginal else 0.0
        states = ix.child(s, "algorithm.quantum_bv_states")
        if states is None:
            continue
        oracles = [c for c in ix.children[states.id] if c.name == "oracle.apply_quantum"]
        queries += len(oracles)
        if not oracles:
            fwd += states.duration
            continue
        first, last = oracles[0], oracles[-1]
        fwd += first.t0 - states.t0
        inv += states.t1 - last.t1
        oracle_s += sum(o.duration for o in oracles)
        for key, a, b in (("fwd", states.mark0, first.mark0), ("inv", last.mark1, states.mark1),
                          ("oracle", first.mark0, last.mark1)):
            peaks[key] = max(peaks[key], tracer.peak_mib(a, b))
    n_solves = len(solves) or 1  # every sum below is 0 when there were no solves
    m["algorithm.fwd_layer_s"] = fwd / n_solves
    m["algorithm.inv_layer_s"] = inv / n_solves
    m["algorithm.readout_s"] = readout / n_solves
    m["algorithm.solve_s"] = solve / n_solves
    m["algorithm.layer_coverage_frac"] = (fwd + oracle_s + inv + readout) / solve if solve else 0.0
    m["algorithm.measure_register_s"] = ix.per("op", "algorithm.measure_register", total)
    m["algorithm.fwd_layer_peak_mib"] = peaks["fwd"]
    m["algorithm.inv_layer_peak_mib"] = peaks["inv"]
    m["algorithm.solve_peak_mib"] = peaks["solve"]

    gate_spans = ix.by[("op", "gates.apply_local_gate")]
    gate_bytes = sum(s.nbytes for s in gate_spans)
    gate_self = sum(s.self_s for s in gate_spans)
    m["gates.apply_local_gate_calls"] = ix.per("op", "gates.apply_local_gate", calls)
    m["gates.apply_local_gate_s"] = ix.per("op", "gates.apply_local_gate", own)
    m["gates.local_gate_bytes"] = ix.per("op", "gates.apply_local_gate", lambda s: s.nbytes)
    m["gates.local_gate_gbps"] = gate_bytes / gate_self / 1e9 if gate_self else 0.0
    m["gates.fourier_matrix_calls"] = ix.per("op", "gates.fourier_matrix", calls)
    m["gates.fourier_matrix_s"] = ix.per("op", "gates.fourier_matrix", total)
    m["gates.apply_sum_calls"] = ix.per("selfcheck", "gates.apply_sum", calls)
    m["gates.apply_sum_s"] = ix.per("selfcheck", "gates.apply_sum", own)
    m["gates.dense_operator_s"] = ix.per("selfcheck", "gates.dense_operator", total)

    m["oracle.apply_quantum_s"] = oracle_s / n_solves
    m["oracle.apply_quantum_peak_mib"] = peaks["oracle"]
    m["oracle.queries_per_solve"] = queries / n_solves

    m["state.statevector_init_calls"] = ix.per("op", "state.statevector_init", calls)
    m["state.statevector_init_s"] = ix.per("op", "state.statevector_init", own)
    m["state.basis_state_s"] = ix.per("op", "state.basis_state", total)

    m["verification.dense_reference_bv_s"] = ix.per("op", "verification.dense_reference_bv", total)
    for check in ("pipeline_check", "gram_check", "gate_equivalence_check"):
        m[f"verification.{check}_s"] = ix.per("selfcheck", f"verification.{check}", total)

    m["cli.import_s"] = cli_import_s
    m["cli.run_experiment_s"] = ix.per("cli", "cli.run_experiment", total)
    m["cli.emit_report_s"] = ix.per("cli", "cli.emit_report", total)

    m["budget.check_capacity_calls"] = ix.per("op", "budget.check_capacity", calls)
    m["trace.overhead_frac"] = 1.0 - traced_ops_per_s / untraced_ops_per_s

    samples = {}
    for name in m:
        if name in SOLVE_SCOPE:
            samples[name] = len(solves)
        elif name in SELFCHECK_SCOPE:
            samples[name] = ix.requests["selfcheck"]
        elif name in CLI_SCOPE:
            samples[name] = ix.requests["cli"]
        else:
            samples[name] = ix.requests["op"]
    return m, samples
