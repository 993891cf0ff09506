"""Tests for the powerplanningdl command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subactions = [
            action for action in parser._actions if hasattr(action, "choices") and action.choices
        ]
        commands = set(subactions[0].choices)
        assert commands == {"generate", "analyze", "plan", "train", "predict", "sweep", "lint"}

    def test_unknown_benchmark_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "not_a_benchmark", "out.spice"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestGenerateAndAnalyze:
    def test_generate_uniform_then_analyze(self, tmp_path, capsys):
        netlist = tmp_path / "ibmpg1.spice"
        assert main(["generate", "ibmpg1", str(netlist), "--width", "6.0"]) == 0
        assert netlist.exists()
        output = capsys.readouterr().out
        assert "generated netlist" in output
        assert "nodes" in output

        assert main(["analyze", str(netlist), "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert "worst-case IR drop (mV)" in output
        assert "3 worst nodes" in output

    def test_analyze_missing_file_errors(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "missing.spice")]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestPlan:
    def test_plan_converges_and_writes_netlist(self, tmp_path, capsys):
        out = tmp_path / "sized.spice"
        assert main(["plan", "ibmpg1", "--netlist-out", str(out)]) == 0
        assert out.exists()
        output = capsys.readouterr().out
        assert "conventional power planning" in output
        assert "converged" in output

    def test_plan_search_reports_counters_and_record(self, tmp_path, capsys):
        record_path = tmp_path / "plan.json"
        assert (
            main(
                [
                    "plan", "ibmpg1",
                    "--search", "--min-width-start",
                    "--json-out", str(record_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "batched planner search" in output
        assert "candidates generated" in output
        assert "moves committed" in output
        assert record_path.exists()

        import json

        record = json.loads(record_path.read_text())
        search = record["search"]
        assert search["candidates_generated"] > 0
        assert search["moves_committed"] > 0
        assert search["candidates_generated"] == (
            search["candidates_pruned"] + search["candidates_solved"]
        )
        assert search["candidates_pruned"] == 0  # exact mode
        assert not search["ranker_used"]

    def test_plan_ranker_implies_search(self, tmp_path, capsys):
        record_path = tmp_path / "plan_ranker.json"
        assert (
            main(
                [
                    "plan", "ibmpg1",
                    "--ranker", "--batch-width", "8", "--min-width-start",
                    "--json-out", str(record_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "batched planner search" in output

        import json

        record = json.loads(record_path.read_text())
        search = record["search"]
        assert search["ranker_used"]
        assert search["candidates_pruned"] > 0
        assert search["candidates_generated"] == (
            search["candidates_pruned"] + search["candidates_solved"]
        )

    def test_plan_record_without_search_has_no_counters(self, tmp_path):
        record_path = tmp_path / "plain.json"
        assert main(["plan", "ibmpg1", "--json-out", str(record_path)]) == 0

        import json

        record = json.loads(record_path.read_text())
        assert "search" not in record
        assert record["converged"]


class TestTrainPredict:
    def test_train_then_predict_roundtrip(self, tmp_path, capsys):
        model = tmp_path / "model.npz"
        assert (
            main(
                [
                    "train", "ibmpg1", str(model),
                    "--epochs", "20", "--hidden-layers", "2", "--hidden-width", "16",
                ]
            )
            == 0
        )
        assert model.exists()
        output = capsys.readouterr().out
        assert "training r2" in output

        assert main(["predict", "ibmpg1", str(model), "--gamma", "0.1", "--verify"]) == 0
        output = capsys.readouterr().out
        assert "predicted worst IR drop (mV)" in output
        assert "verified worst IR drop (mV)" in output

    def test_predict_missing_model_errors(self, tmp_path, capsys):
        assert main(["predict", "ibmpg1", str(tmp_path / "missing.npz")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_predict_bad_gamma_errors(self, tmp_path):
        model = tmp_path / "model.npz"
        model.write_bytes(b"placeholder")
        assert main(["predict", "ibmpg1", str(model), "--gamma", "0.9"]) == 2


class TestSweep:
    def test_sweep_prints_summary_and_writes_record(self, tmp_path, capsys):
        record_path = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "sweep", "ibmpg1",
                    "--num-loads", "6", "--num-pads", "4",
                    "--chunk-size", "7", "--top-k", "3",
                    "--json-out", str(record_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "streamed mega-sweep" in output
        assert "6 x 4 = 24" in output
        assert "P99 worst drop (mV)" in output
        assert "top-3 worst scenarios" in output
        assert record_path.exists()

        import json

        record = json.loads(record_path.read_text())
        assert record["num_scenarios"] == 24
        assert record["chunk_size"] == 7
        assert len(record["top_scenarios"]) == 3

    def test_sweep_bad_arguments_error(self, capsys):
        assert main(["sweep", "ibmpg1", "--gamma", "1.5"]) == 2
        assert "--gamma" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--num-loads", "0"]) == 2
        assert "--num-loads" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--chunk-size", "0"]) == 2
        assert "--chunk-size" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--quantiles", "abc"]) == 2
        assert "--quantiles" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--quantiles", "1.5"]) == 2
        assert "--quantiles" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--quantiles", "0.9,0.5"]) == 2
        assert "--quantiles" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--top-k", "0"]) == 2
        assert "--top-k" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--bins", "0"]) == 2
        assert "--bins" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--threshold-mv", "-5"]) == 2
        assert "--threshold-mv" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--executor", "serial", "--workers", "2"]) == 2
        assert "--executor serial" in capsys.readouterr().err

    def test_sweep_executor_hybrid(self, tmp_path, capsys):
        """--executor hybrid shards the sweep and reports statistics —
        quantiles included — identical to the serial run."""
        args = [
            "sweep", "ibmpg1",
            "--num-loads", "6", "--num-pads", "4",
            "--chunk-size", "7", "--top-k", "3",
        ]
        serial_path = tmp_path / "serial.json"
        hybrid_path = tmp_path / "hybrid.json"
        assert main(args + ["--executor", "serial", "--json-out", str(serial_path)]) == 0
        assert (
            main(
                args
                + [
                    "--executor", "hybrid", "--shard-workers", "2",
                    "--threads-per-shard", "1", "--json-out", str(hybrid_path),
                ]
            )
            == 0
        )
        assert "executor" in capsys.readouterr().out

        import json

        serial = json.loads(serial_path.read_text())
        hybrid = json.loads(hybrid_path.read_text())
        assert serial["executor"] == "serial"
        assert hybrid["executor"] == "hybrid"
        assert hybrid["workers"] == 2
        assert hybrid["executor_stats"]["shards"] == 2
        volatile = (
            "executor", "workers", "executor_stats", "analysis_time_seconds",
            "scenarios_per_second",
        )
        for record in (serial, hybrid):
            for key in volatile:
                record.pop(key)
        assert serial == hybrid

    def test_sweep_remote_needs_a_coordinator(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_REMOTE_COORDINATOR", raising=False)
        assert main(["sweep", "ibmpg1", "--executor", "remote"]) == 2
        assert "coordinator" in capsys.readouterr().err

    def test_sweep_with_workers_matches_sequential_record(self, tmp_path, capsys):
        """--workers changes throughput only: the JSON record's statistics
        are identical to the sequential run's."""
        args = [
            "sweep", "ibmpg1",
            "--num-loads", "6", "--num-pads", "4",
            "--chunk-size", "5", "--top-k", "3",
        ]
        sequential_path = tmp_path / "sequential.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(args + ["--workers", "1", "--json-out", str(sequential_path)]) == 0
        assert main(args + ["--workers", "2", "--json-out", str(parallel_path)]) == 0
        assert "solver workers" in capsys.readouterr().out

        import json

        sequential = json.loads(sequential_path.read_text())
        parallel = json.loads(parallel_path.read_text())
        assert sequential["workers"] == 1
        assert parallel["workers"] == 2
        for volatile in ("workers", "analysis_time_seconds", "scenarios_per_second"):
            sequential.pop(volatile)
            parallel.pop(volatile)
        assert sequential == parallel
