"""Tests for the protocol x PHY arena: the pinned ARENA_MATRIX cells and
the E18 experiment table.

The arena's acceptance contract: every protocol x PHY pairing the E18
table reports must be backed by a pinned conformance cell somewhere in
the walls — the new pairings (``mw05`` x sinr, ``mis`` x everything) by
:data:`~repro.conform.ARENA_MATRIX`, the historical ``mw05`` x
collision / multichannel pairings by the 24-cell and PHY matrices.
"""

import pytest

from repro.conform import (
    ARENA_MATRIX,
    PHY_MATRIX,
    SCENARIO_MATRIX,
    run_scenario,
)


class TestArenaMatrixShape:
    def test_unique_seeds_across_all_walls(self):
        """Arena seeds collide with no other pinned wall (each scenario
        seeds its own world; a shared seed would hide a divergence)."""
        arena_seeds = [s.seed for s in ARENA_MATRIX]
        assert len(set(arena_seeds)) == len(arena_seeds)
        other = {s.seed for s in SCENARIO_MATRIX} | {s.seed for s in PHY_MATRIX}
        assert not (set(arena_seeds) & other)

    def test_covers_every_new_pairing(self):
        """Each pairing the strategy layer unlocks has a pinned cell."""
        pairings = {(s.protocol, s.phy) for s in ARENA_MATRIX}
        assert ("mw05", "sinr") in pairings
        assert ("mis", "collision") in pairings
        assert ("mis", "multichannel") in pairings
        assert ("mis", "sinr") in pairings

    def test_mis_exercised_on_blocked_path(self):
        assert any(s.protocol == "mis" and s.block > 1 for s in ARENA_MATRIX)

    def test_labels_and_replay_args_name_the_protocol(self):
        for s in ARENA_MATRIX:
            if s.protocol != "mw05":
                assert f"protocol={s.protocol}" in s.label()
                assert f"--protocol {s.protocol}" in s.cli_args()


@pytest.mark.conform
class TestArenaCellsConform:
    """Run the cheap arena cells end to end (the full wall runs them
    all via ``repro conform --arena``)."""

    @pytest.mark.parametrize(
        "idx", [0, 2, 4], ids=["mw05-sinr", "mis-collision", "mis-sinr"]
    )
    def test_cell_conforms_and_completes(self, idx):
        report = run_scenario(ARENA_MATRIX[idx])
        assert report.ok, report
        assert report.completed


class TestE18Table:
    def test_table_spans_protocols_and_phys(self):
        from repro.experiments import e18_arena

        table = e18_arena.run(quick=True, seeds=1)
        rows = table.rows
        protocols = {r["protocol"] for r in rows}
        phys = {r["phy"] for r in rows}
        assert len(protocols) >= 2
        assert len(phys) >= 3
        assert len(rows) == len(protocols) * len(phys)
        # Every pairing verified: ok is the fraction of proper runs.
        assert all(r["ok"] == 1.0 for r in rows)
