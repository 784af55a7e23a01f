import json
import os
import subprocess
import sys

import numpy as np
import pytest

import quditbv
from quditbv import DomainError, RunReport, random_secret
from quditbv.cli import emit_report, main, run_experiment


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def usage_error(capsys, argv):
    """Run ``argv`` through ``main``, which must exit 2 with empty stdout; return stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    return captured.err


class TestParseConfig:
    """How ``main`` turns ``run`` argv into one experiment, read back from stdout."""

    def test_direct_field_mapping(self, capsys):
        argv = ["run", "--d", "3", "--n", "2", "--secret", "1,2", "--mode", "both"]
        rows = run_json(capsys, argv)
        assert [row["mode"] for row in rows] == ["quantum", "classical"]
        for row in rows:
            assert (row["d"], row["n"], row["secret"], row["seed"]) == (3, 2, [1, 2], 0)

    def test_secret_generated_from_seed_is_reproducible(self, capsys):
        argv = ["run", "--d", "2", "--n", "3", "--seed", "7"]
        first, second = (run_json(capsys, argv)[0]["secret"] for _ in range(2))
        assert first == second
        assert tuple(first) == random_secret(2, 3, np.random.default_rng(7))
        assert len(first) == 3
        assert all(0 <= v < 2 for v in first)

    def test_different_seeds_vary_the_secret(self, capsys):
        argv = ["run", "--d", "5", "--n", "4", "--seed"]
        secrets = {tuple(run_json(capsys, argv + [str(seed)])[0]["secret"]) for seed in range(8)}
        assert len(secrets) > 1

    def test_digit_at_least_d_is_usage_error(self, capsys):
        err = usage_error(capsys, ["run", "--d", "3", "--n", "2", "--secret", "1,3"])
        assert err.endswith("quditbv: error: digit 3 is outside [0, 3)\n")

    def test_unknown_flag_is_usage_error(self, capsys):
        err = usage_error(capsys, ["run", "--d", "3", "--n", "2", "--frobnicate", "1"])
        assert "unrecognized arguments: --frobnicate 1" in err

    def test_malformed_secret_is_usage_error(self, capsys):
        err = usage_error(capsys, ["run", "--d", "3", "--n", "2", "--secret", "1,x"])
        assert err.endswith("error: --secret must be comma-separated integers, got '1,x'\n")

    def test_wrong_secret_length_is_usage_error(self, capsys):
        err = usage_error(capsys, ["run", "--d", "3", "--n", "2", "--secret", "1"])
        assert err.endswith("error: expected 2 digits, got 1\n")

    @pytest.mark.parametrize("argv", [["run", "--d", "1", "--n", "2"], ["run", "--d", "2", "--n", "0"]])
    def test_out_of_range_sizes_are_usage_errors(self, capsys, argv):
        flag, minimum, value = ("--d", 2, 1) if argv[2] == "1" else ("--n", 1, 0)
        err = usage_error(capsys, argv)
        assert err.endswith(f"error: {flag} must be at least {minimum}, got {value}\n")

    def test_negative_seed_is_usage_error(self, capsys):
        err = usage_error(capsys, ["run", "--d", "3", "--n", "2", "--seed", "-1"])
        assert err.endswith("error: --seed must be at least 0, got -1\n")


class TestRunExperiment:
    def test_both_mode_uses_fresh_oracles(self):
        reports = run_experiment((1, 0, 1, 1), 2, "both")
        assert [r.mode for r in reports] == ["quantum", "classical"]
        assert reports[0].oracle_queries == 1
        assert reports[1].oracle_queries == 4
        assert reports[0].recovered == reports[1].recovered == (1, 0, 1, 1)

    def test_quantum_all_zero_secret(self):
        reports = run_experiment((0, 0, 0), 4, "quantum")
        assert len(reports) == 1
        assert reports[0].recovered == (0, 0, 0)

    def test_seeded_secret_agrees_across_modes(self, capsys):
        secret = random_secret(5, 2, np.random.default_rng(11))
        reports = run_experiment(secret, 5, "both")
        assert reports[0].recovered == reports[1].recovered == secret
        rows = run_json(capsys, ["run", "--d", "5", "--n", "2", "--mode", "both", "--seed", "11"])
        assert all(row["secret"] == row["recovered"] == list(secret) for row in rows)

    def test_validates_digits(self):
        with pytest.raises(DomainError):
            run_experiment((1, 3), 3, "quantum")

    def test_validates_mode_and_format(self, capsys):
        with pytest.raises(DomainError):
            run_experiment((1, 2), 3, "sideways")
        err = usage_error(capsys, ["run", "--d", "3", "--n", "2", "--mode", "sideways"])
        assert "argument --mode: invalid choice: 'sideways'" in err
        err = usage_error(capsys, ["run", "--d", "3", "--n", "2", "--format", "xml"])
        assert "argument --format: invalid choice: 'xml'" in err


def make_report(**overrides):
    base = dict(
        mode="quantum",
        d=3,
        n=2,
        recovered=(1, 2),
        oracle_queries=1,
        peak_probability=1.0,
    )
    base.update(overrides)
    return RunReport(**base)


class TestEmitReport:
    def test_single_quantum_report_json(self):
        text = emit_report([make_report()], "json", secret=(1, 2), seed=5)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert isinstance(parsed, list) and len(parsed) == 1
        assert parsed[0]["oracle_queries"] == 1
        assert parsed[0]["secret"] == [1, 2]
        assert parsed[0]["recovered"] == [1, 2]
        assert parsed[0]["seed"] == 5
        assert list(parsed[0].keys()) == [
            "mode",
            "d",
            "n",
            "secret",
            "recovered",
            "oracle_queries",
            "peak_probability",
            "seed",
        ]

    def test_empty_report_list(self):
        assert json.loads(emit_report([], "json", secret=(1,), seed=0)) == []
        csv_text = emit_report([], "csv", secret=(1,), seed=0)
        assert csv_text == "mode,d,n,secret,recovered,oracle_queries,peak_probability,seed\n"

    def test_both_mode_rows(self):
        reports = run_experiment((1, 2), 3, "both")
        lines = emit_report(reports, "csv", secret=(1, 2), seed=0).splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("quantum,3,2,1-2,1-2,1,")
        assert lines[2].startswith("classical,3,2,1-2,1-2,2,")

    def test_text_format_line(self):
        text = emit_report([make_report()], "text", secret=(1, 2), seed=0)
        assert text == (
            "mode=quantum d=3 n=2 secret=1-2 recovered=1-2 "
            "oracle_queries=1 peak_probability=1.0 seed=0\n"
        )
        assert "recovered=1-2" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(DomainError):
            emit_report([make_report()], "yaml", secret=(1, 2), seed=0)

    @pytest.mark.parametrize("secret", [(1.9, 2), (True, 2), "12", (-1, 2)])
    def test_bad_secret_digits_rejected(self, secret):
        # Unchecked, each of these would render as a plausible digit string such as 1-2.
        with pytest.raises(DomainError, match="secret digit"):
            emit_report([make_report()], "csv", secret=secret, seed=0)


class TestMainExitCodes:
    def test_run_success(self, capsys):
        code = main(["run", "--d", "3", "--n", "2", "--secret", "1,2", "--mode", "both"])
        captured = capsys.readouterr()
        assert code == 0
        parsed = json.loads(captured.out)
        assert [row["mode"] for row in parsed] == ["quantum", "classical"]
        assert all(row["recovered"] == [1, 2] for row in parsed)

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--d", "3", "--n", "2", "--secret", "9,9"])
        assert excinfo.value.code == 2

    def test_capacity_error_is_3(self, capsys):
        code = main(["run", "--d", "2", "--n", "40"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "amplitude" in captured.err

    def test_consistency_error_is_4(self, capsys, monkeypatch):
        from quditbv import ConsistencyError
        from quditbv import cli as cli_module

        def broken_solver(oracle):
            raise ConsistencyError("injected failure")

        monkeypatch.setattr(cli_module, "run_quantum_bv", broken_solver)
        code = main(["run", "--d", "2", "--n", "1"])
        captured = capsys.readouterr()
        assert code == 4
        assert "injected failure" in captured.err

    def test_capacity_error_names_the_allocation(self, capsys):
        assert main(["run", "--d", "2", "--n", "40"]) == 3
        assert "pipeline register" in capsys.readouterr().err

    def test_malformed_budget_is_2(self, capsys, monkeypatch):
        monkeypatch.setenv("QUDITBV_AMPLITUDE_BUDGET", "abc")
        code = main(["run", "--d", "2", "--n", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "QUDITBV_AMPLITUDE_BUDGET" in captured.err

    def test_sweep_table(self, capsys):
        code = main(["sweep", "--d", "3", "--n", "1..4", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        rows = json.loads(captured.out)
        assert [row["n"] for row in rows] == [1, 2, 3, 4]
        for row in rows:
            assert row["d"] == 3
            assert row["quantum_queries"] == 1
            assert row["classical_queries"] == row["n"]
            assert row["recovered_match"] is True

    def test_sweep_csv_golden(self, capsys):
        assert main(["sweep", "--d", "2..3", "--n", "1..3", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (
            "d,n,secret,quantum_queries,classical_queries,recovered_match\n"
            "2,1,1,1,1,true\n"
            "2,2,1-1,1,2,true\n"
            "2,3,0-0-0,1,3,true\n"
            "3,1,0,1,1,true\n"
            "3,2,0-0,1,2,true\n"
            "3,3,2-1-2,1,3,true\n"
        )

    @pytest.mark.parametrize(
        "d,n,expected",
        [
            (16, 4, "quantum,16,4,12-1-2-3,12-1-2-3,1,1.0,3\n"
                    "classical,16,4,12-1-2-3,12-1-2-3,4,1.0,3\n"),
            (2, 14, "quantum,2,14,1-0-0-0-0-1-1-1-0-0-0-0-1-0,1-0-0-0-0-1-1-1-0-0-0-0-1-0,1,"
                    "0.9999999999999951,3\n"
                    "classical,2,14,1-0-0-0-0-1-1-1-0-0-0-0-1-0,1-0-0-0-0-1-1-1-0-0-0-0-1-0,14,"
                    "1.0,3\n"),
        ],
    )
    def test_run_csv_golden_above_gather_chunk(self, capsys, d, n, expected):
        # Both registers span several of the oracle's gather blocks, so this
        # pins the gather across blocks and the inverse layer on large registers.
        argv = ["run", "--d", str(d), "--n", str(n), "--mode", "both", "--seed", "3"]
        assert main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out == (
            "mode,d,n,secret,recovered,oracle_queries,peak_probability,seed\n" + expected
        )

    def test_sweep_below_minimum_error_line(self, capsys):
        err = usage_error(capsys, ["sweep", "--d", "1..3", "--n", "1"])
        assert err.splitlines()[-1] == "quditbv: error: --d values must be at least 2, got 1"

    def test_sweep_negative_seed_is_usage_error(self, capsys):
        err = usage_error(capsys, ["sweep", "--d", "2", "--n", "1", "--seed", "-1"])
        assert err.splitlines()[-1] == "quditbv: error: --seed must be at least 0, got -1"

    def test_sweep_rejects_bad_range(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--d", "3", "--n", "4..1"])
        assert excinfo.value.code == 2

    def test_determinism_of_run_output(self, capsys):
        argv = ["run", "--d", "3", "--n", "2", "--secret", "1,2", "--mode", "both", "--seed", "0"]
        outputs = []
        for _ in range(3):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1


def test_package_import_does_not_load_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys, quditbv; "
        "print(sorted(m for m in ('argparse', 'csv', 'json') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_public_names_resolve_once():
    names = quditbv.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(quditbv, name)]
    assert missing == []


def test_stdout_and_amplitudes_do_not_depend_on_blas_threads():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import hashlib\n"
        "from quditbv import LinearOracle, quantum_bv_states\n"
        "from quditbv.cli import main\n"
        "main(['run', '--d', '9', '--n', '4', '--mode', 'both', '--seed', '3'])\n"
        "main(['run', '--d', '2', '--n', '12', '--mode', 'both', '--seed', '3'])\n"
        "main(['selfcheck', '--format', 'csv'])\n"
        "for s, d in [((3, 0, 15, 7), 16), ((1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0), 2)]:\n"
        "    final = quantum_bv_states(LinearOracle(s, d)).final\n"
        "    print(hashlib.sha256(final.amplitudes.tobytes()).hexdigest())\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        outputs.append(proc.stdout)
    assert "PASS" in outputs[0]
    assert outputs[0] == outputs[1]
