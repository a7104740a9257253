"""Tests for the cellspot CLI (small scale to keep the suite fast)."""

import pytest

from repro.cli import build_parser, main

ARGS = ["--scale", "0.002", "--seed", "21"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("world", "run", "all", "datasets"):
            args = parser.parse_args([command] + ARGS)
            assert callable(args.func)
        args = parser.parse_args(["experiment", "table5"] + ARGS)
        assert args.id == "table5"

    @pytest.mark.parametrize(
        "flags",
        [
            # The shard executor recomputes a failed shard instead of
            # retrying it: it has no retry budget, timeout or hedge.
            ["run", "--max-retries", "0"],
            ["run", "--shard-timeout", "1.5"],
            ["run", "--hedge"],
            ["serve", "--max-pending", "0"],
            ["serve", "--deadline", "0"],
        ],
    )
    def test_resilience_flags_validated(self, flags):
        with pytest.raises(SystemExit):
            build_parser().parse_args(flags)


class TestCommands:
    def test_world(self, capsys):
        assert main(["world"] + ARGS) == 0
        out = capsys.readouterr().out
        assert "cellular ASes" in out

    def test_run(self, capsys):
        assert main(["run"] + ARGS) == 0
        out = capsys.readouterr().out
        assert "accepted cellular ASes" in out
        assert "BEACON" in out and "DEMAND" in out

    def test_experiment(self, capsys):
        assert main(["experiment", "table5"] + ARGS) == 0
        out = capsys.readouterr().out
        assert "paper vs measured" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "nope"] + ARGS) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_datasets(self, tmp_path, capsys):
        assert main(["datasets", "--out", str(tmp_path)] + ARGS) == 0
        assert (tmp_path / "beacon.jsonl").exists()
        assert (tmp_path / "demand.jsonl").exists()
        # Round-trip what the CLI wrote.
        from repro.datasets.beacon_dataset import BeaconDataset

        with (tmp_path / "beacon.jsonl").open() as stream:
            dataset = BeaconDataset.load(stream)
        assert len(dataset) > 0


class TestPrefixList:
    def test_prefixlist_export(self, tmp_path, capsys):
        out = tmp_path / "cells.csv"
        assert main(["prefixlist", "--out", str(out)] + ARGS) == 0
        assert out.exists()
        from repro.core.export import CellularPrefixList

        with out.open() as stream:
            prefix_list = CellularPrefixList.from_csv(stream)
        assert len(prefix_list) > 0

    def test_prefixlist_no_aggregate_is_larger(self, tmp_path):
        aggregated = tmp_path / "agg.csv"
        raw = tmp_path / "raw.csv"
        main(["prefixlist", "--out", str(aggregated)] + ARGS)
        main(["prefixlist", "--out", str(raw), "--no-aggregate"] + ARGS)
        assert raw.read_text().count("\n") >= aggregated.read_text().count("\n")

    def test_report_writes_markdown(self, tmp_path):
        out = tmp_path / "EXPERIMENTS.md"
        code = main(["report", "--out", str(out)] + ARGS)
        text = out.read_text()
        assert "# EXPERIMENTS" in text
        assert "table8" in text
        assert code in (0, 1)  # tiny worlds may diverge on some checks


class TestValidate:
    def _export(self, tmp_path):
        main(["datasets", "--out", str(tmp_path)] + ARGS)
        return tmp_path / "beacon.jsonl", tmp_path / "demand.jsonl"

    def test_clean_files_pass(self, tmp_path, capsys):
        beacon, demand = self._export(tmp_path)
        assert main(["validate", str(beacon), str(demand)]) == 0
        out = capsys.readouterr().out
        assert "0 rejected" in out

    def test_corrupted_file_fails_with_line_detail(self, tmp_path, capsys):
        beacon, demand = self._export(tmp_path)
        lines = beacon.read_text().splitlines()
        lines[3] = "not json"
        beacon.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(beacon), str(demand)]) == 1
        out = capsys.readouterr().out
        assert "1 rejected" in out
        assert "line 4" in out

    def test_quarantine_dir_writes_sidecar(self, tmp_path, capsys):
        beacon, demand = self._export(tmp_path)
        lines = beacon.read_text().splitlines()
        lines[2] = '{"broken'
        beacon.write_text("\n".join(lines) + "\n")
        qdir = tmp_path / "quarantine"
        assert main([
            "validate", str(beacon), str(demand),
            "--quarantine-dir", str(qdir),
        ]) == 1
        sidecar = qdir / "beacon.quarantine.jsonl"
        assert sidecar.exists()
        from repro.runtime.quarantine import read_quarantine

        with sidecar.open() as stream:
            records = list(read_quarantine(stream))
        assert len(records) == 1 and records[0].error.line_no == 3

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        beacon, demand = self._export(tmp_path)
        assert main(["validate", str(tmp_path / "nope.jsonl"), str(demand)]) == 2
        assert "no such file" in capsys.readouterr().err


class TestWorldAudit:
    def test_audit_flag(self, capsys):
        assert main(["world", "--audit"] + ARGS) == 0
        assert "invariants hold" in capsys.readouterr().out


class TestEvolve:
    def test_evolve_command(self, capsys):
        assert main(["evolve", "--months", "1"] + ARGS) == 0
        out = capsys.readouterr().out
        assert "churn" in out
        assert "prefix list covers" in out
