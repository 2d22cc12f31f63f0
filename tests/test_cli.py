"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        arguments = build_parser().parse_args(["fig2"])
        assert arguments.command == "fig2"
        assert arguments.users == 300
        assert arguments.trials == 2
        assert not arguments.full

    def test_unknown_command_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_scale_flags_are_parsed(self):
        arguments = build_parser().parse_args(["--users", "50", "--trials", "1", "fig3"])
        assert arguments.users == 50
        assert arguments.trials == 1

    def test_retrain_mode_flags_are_parsed(self):
        arguments = build_parser().parse_args(["fig3"])
        assert arguments.retrain_mode == "exact"
        assert not arguments.warm_start
        arguments = build_parser().parse_args(
            ["--retrain-mode", "compressed", "--warm-start", "fig3"]
        )
        assert arguments.retrain_mode == "compressed"
        assert arguments.warm_start

    def test_invalid_retrain_mode_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--retrain-mode", "subsampled", "fig3"])

    def test_execution_flag_is_the_only_layout_flag(self):
        assert build_parser().parse_args(["fig3"]).execution == "serial"
        assert (
            build_parser().parse_args(["--execution", "batch", "fig3"]).execution
            == "batch"
        )
        for retired in ("--trial-batch", "--shard-parallel"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([retired, "fig3"])

    def test_checkpoint_flags_are_parsed(self):
        arguments = build_parser().parse_args(["fig3"])
        assert arguments.checkpoint_dir is None
        assert arguments.checkpoint_every == 0
        assert not arguments.resume
        arguments = build_parser().parse_args(
            ["--checkpoint-dir", "/tmp/ckpt", "--checkpoint-every", "5", "--resume", "fig3"]
        )
        assert arguments.checkpoint_dir == "/tmp/ckpt"
        assert arguments.checkpoint_every == 5
        assert arguments.resume

    def test_resume_without_checkpoint_dir_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["--resume", "fig3"])
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_every_without_dir_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["--checkpoint-every", "5", "fig3"])
        assert "--checkpoint-dir" in capsys.readouterr().err


class TestCommands:
    def test_fig2_prints_the_income_table(self, capsys):
        assert main(["fig2"]) == 0
        output = capsys.readouterr().out
        assert "BLACK ALONE" in output
        assert "over 200" in output

    def test_table1_prints_the_scorecard(self, capsys):
        assert main(["--users", "150", "--trials", "1", "table1"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "4.953" in output

    @pytest.mark.parametrize("command", ["table1", "all"])
    def test_command_runs_under_the_batch_layout(self, command, capsys):
        # table1 (also part of "all") runs one trial through run_trial,
        # which runs a batch plan on the serial loop: the same bits as the
        # default layout.
        flags = ["--users", "60", "--trials", "1"]
        assert main([*flags, command]) == 0
        serial = capsys.readouterr().out
        assert main([*flags, "--execution", "batch", command]) == 0
        assert capsys.readouterr().out == serial

    def test_fig3_prints_the_race_series(self, capsys):
        assert main(["--users", "80", "--trials", "1", "fig3"]) == 0
        output = capsys.readouterr().out
        assert "cross-race ADR gap" in output
        assert "2020" in output

    def test_fig3_runs_with_compressed_retraining(self, capsys):
        assert (
            main(
                [
                    "--users",
                    "80",
                    "--trials",
                    "1",
                    "--retrain-mode",
                    "compressed",
                    "fig3",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "cross-race ADR gap" in output

    def test_fig3_runs_trial_batched(self, capsys):
        assert (
            main(
                ["--users", "80", "--trials", "2", "--execution", "batch", "fig3"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "cross-race ADR gap" in output

    def test_ablation_ergodicity_runs(self, capsys):
        assert main(["ablation-ergodicity"]) == 0
        output = capsys.readouterr().out
        assert "uniquely ergodic" in output

    def test_steering_runs_on_a_small_configuration(self, capsys):
        assert main(["--users", "60", "--trials", "1", "steering"]) == 0
        output = capsys.readouterr().out
        assert "impact steering" in output

    def test_drift_runs_on_a_small_configuration(self, capsys):
        assert main(["--users", "60", "--trials", "1", "drift"]) == 0
        output = capsys.readouterr().out
        assert "Recession shock" in output

    def test_fig3_checkpoints_then_resumes(self, capsys, tmp_path):
        flags = [
            "--users", "40", "--trials", "1",
            "--checkpoint-dir", str(tmp_path), "--checkpoint-every", "5",
        ]
        assert main([*flags, "fig3"]) == 0
        first = capsys.readouterr().out
        # The completed trial's result is on disk, so a resumed run skips
        # the simulation entirely and prints the identical figure.
        assert (tmp_path / "trial-0000.result").exists()
        assert main([*flags, "--resume", "fig3"]) == 0
        assert capsys.readouterr().out == first
