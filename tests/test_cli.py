"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_registry_modules_importable(self):
        import importlib

        for mod_name, _ in EXPERIMENTS.values():
            mod = importlib.import_module(f"repro.experiments.{mod_name}")
            assert callable(mod.run)


class TestKappa:
    def test_prints_bounds(self, capsys):
        assert main(["kappa", "--n", "40", "--degree", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "kappa1=" in out and "kappa2=" in out


class TestColor:
    def test_successful_run_exit_zero(self, capsys):
        rc = main(["color", "--n", "30", "--degree", "7", "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "proper" in out

    def test_schedule_option(self, capsys):
        rc = main(
            ["color", "--n", "25", "--degree", "7", "--seed", "5",
             "--schedule", "sequential"]
        )
        assert rc == 0

    def test_rejects_unknown_schedule(self):
        with pytest.raises(SystemExit):
            main(["color", "--schedule", "mystery"])

    def test_unaligned_flag_composes_with_loss(self, capsys):
        rc = main(
            ["color", "--n", "20", "--degree", "6", "--seed", "3",
             "--unaligned", "--loss", "0.05"]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "proper" in out

    def test_channels_flag_runs_multichannel(self, capsys):
        """--channels K runs the full protocol on a hopping PHY with
        constants auto-scaled by K (unscaled constants fail routinely at
        the 1/K meeting rate)."""
        rc = main(["color", "--n", "24", "--degree", "6", "--seed", "7",
                   "--channels", "2"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "proper" in out

    @pytest.mark.parametrize(
        "protocol, slots", [("mw05", 7425), ("mis", 1855)], ids=["mw05", "mis"]
    )
    def test_block_results_identical_at_any_block_above_one(
        self, capsys, protocol, slots
    ):
        """B > 1 runs the protocol's batched node class, so every B > 1
        prints the same summary (B = 1 runs the classic node, another
        trajectory)."""
        outs = []
        for block in ("2", "64"):
            rc = main(["color", "--n", "40", "--degree", "8", "--seed", "3",
                       "--block", block, "--protocol", protocol])
            out = capsys.readouterr().out
            assert rc == 0, out
            outs.append(out)
        assert outs[0] == outs[1]
        assert f"protocol: {protocol}" in outs[0]
        assert f"slots: {slots}\n" in outs[0]

    def test_channels_rejected_on_unaligned(self, capsys):
        rc = main(
            ["color", "--n", "20", "--degree", "6", "--seed", "3",
             "--unaligned", "--channels", "2"]
        )
        assert rc == 2
        assert "unaligned" in capsys.readouterr().err


class TestColorMetrics:
    def test_metrics_flag_prints_channel_block(self, capsys):
        rc = main(["color", "--n", "20", "--degree", "6", "--seed", "2", "--metrics"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "channel metrics:" in out
        assert "protocol_draws" in out
        assert "busiest slot" in out


@pytest.mark.conform
class TestConform:
    """Acceptance: zero on the real protocol, nonzero with the slot/node
    report on a deliberately broken node class."""

    def test_quick_matrix_exits_zero(self, capsys):
        rc = main(["conform", "--quick"])
        out = capsys.readouterr().out
        assert rc == 0, out
        # 14 cells: 7 scenarios (one per family, a small-block one, the
        # SINR-PHY and the mis-protocol smoke scenarios), each run once
        # per node population.
        assert "14/14 cells conform" in out

    def test_injected_bug_exits_nonzero_with_report(self, capsys):
        rc = main(["conform", "--quick", "--inject-bug"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DIVERGENCE at slot" in out
        assert "node" in out
        assert "replay:" in out and "--max-slots" in out

    def test_single_scenario_replay(self, capsys):
        rc = main(
            ["conform", "--family", "udg", "--n", "16", "--degree", "5",
             "--schedule", "sync", "--loss", "0", "--param-scale", "1",
             "--seed", "500", "--max-slots", "100"]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "slot budget hit" in out

    def test_replay_with_injected_bug_exits_nonzero(self, capsys):
        rc = main(
            ["conform", "--family", "udg", "--n", "16", "--degree", "5",
             "--schedule", "sync", "--seed", "500", "--inject-bug"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "field 'tx.msg'" in out

    def test_block_replay_with_injected_bug_exits_nonzero(self, capsys):
        """Both populations' routes run their broken class on a block
        scenario, and each divergence is reported."""
        rc = main(
            ["conform", "--family", "udg", "--n", "16", "--degree", "5",
             "--seed", "500", "--block", "32", "--inject-bug"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "DIVERGENCE at slot 420, node 0: field 'tx.msg'" in out
        assert "DIVERGENCE at slot 365, node 0: field 'tx'" in out
        assert "0/2 cells conform" in out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--family", "udg", "--block", "8", "--phy", "unaligned"],
             "unaligned"),
            (["--family", "udg", "--n", "0"], "n >= 1"),
            (["--family", "udg", "--loss", "1.5"], "loss_prob"),
            (["--family", "udg", "--max-slots", "-5"], "max_slots"),
            (["--fuzz", "3", "--budget", "0"], "--budget"),
        ],
        ids=["block-unaligned", "n0", "loss", "max-slots", "budget"],
    )
    def test_invalid_scenario_flags_exit_2(self, capsys, flags, message):
        """Invalid flags print a one-line message and exit 2 before any
        cell runs (no traceback)."""
        rc = main(["conform", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert message in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_metrics_flag_prints_totals(self, capsys):
        rc = main(
            ["conform", "--family", "udg", "--n", "12", "--degree", "5",
             "--seed", "500", "--max-slots", "60", "--metrics"]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "reference:" in out and "route:" in out

    def test_rejects_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["conform", "--family", "hypercube"])

    def test_phy_replay_unaligned(self, capsys):
        rc = main(
            ["conform", "--family", "udg", "--n", "12", "--degree", "5",
             "--seed", "4000", "--phy", "unaligned", "--max-slots", "80"]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "1/1 cells conform" in out

    def test_phy_replay_multichannel(self, capsys):
        rc = main(
            ["conform", "--family", "udg", "--n", "12", "--degree", "5",
             "--seed", "4100", "--phy", "multichannel", "--channels", "2",
             "--param-scale", "2", "--max-slots", "120"]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "slot budget hit" in out

    def test_rejects_unknown_phy(self):
        with pytest.raises(SystemExit):
            main(["conform", "--phy", "bogus"])


class TestExperiment:
    def test_runs_e5_and_prints_table(self, capsys):
        rc = main(["experiment", "e5", "--seeds", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "E5" in out and "udg" in out

    def test_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "e5.csv"
        rc = main(["experiment", "e5", "--seeds", "1", "--csv", str(csv_path)])
        assert rc == 0
        text = csv_path.read_text()
        assert "model" in text.splitlines()[0]
        assert "udg" in text

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "e99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
