"""Differential conformance harness tests.

Three layers:

- the **equivalence matrix**: the engine's compatibility and vectorized
  paths must agree slot-exactly across every pinned scenario (4 graph
  families x 3 wake-up schedules x loss in {0, 0.1});
- the **localizer regression rig**: a deliberately broken node class on
  one side must be localized to the exact slot and node where the bug
  first manifests — a harness that has never caught a bug is untested;
- the **harness plumbing**: shared uniform source semantics, shim path
  selection, scenario reproducibility, and the fuzz driver.

The quick tests are additionally marked ``conform`` so ``make conform``
(and any ``-m conform`` selection) runs the smoke subset by itself.
"""

import numpy as np
import pytest

from repro.conform import (
    ARENA_MATRIX,
    BLOCK_MATRIX,
    PHY_MATRIX,
    SCENARIO_MATRIX,
    Divergence,
    LateActivationNode,
    OffByOneCounterNode,
    Scenario,
    SlotUniformSource,
    build_lockstep,
    fuzz,
    localize_slot,
    phy_matrix,
    quick_matrix,
    random_scenarios,
    run_cells,
    run_matrix,
    run_scenario,
)
from repro._util import spawn_generator
from repro.radio.messages import CounterMessage
from repro.radio.trace import TraceEvent


def _labels(scenarios):
    return [s.label() for s in scenarios]


@pytest.mark.conform
class TestQuickMatrix:
    """Tier-1 smoke subset: one scenario per family, seconds not minutes."""

    @pytest.mark.parametrize(
        "scenario", quick_matrix(), ids=_labels(quick_matrix())
    )
    def test_paths_conform(self, scenario):
        # A block cell runs once per node population: the classic one's
        # spans take node steps ahead of the deliveries.
        reports = run_cells(scenario)
        assert len(reports) == (2 if scenario.block else 1)
        for report in reports:
            assert report.ok, report.describe()
            assert report.completed, report.describe()
            # The compared channel totals must agree too (draw counts
            # are per-path diagnostics and legitimately differ).
            for name in ("tx", "rx", "collisions", "lost"):
                assert report.classic_totals[name] == report.vectorized_totals[name]


class TestEquivalenceMatrix:
    """The full pinned matrix: every family x schedule x loss cell."""

    @pytest.mark.parametrize(
        "scenario", SCENARIO_MATRIX, ids=_labels(SCENARIO_MATRIX)
    )
    def test_paths_conform(self, scenario):
        report = run_scenario(scenario)
        assert report.ok, report.describe()

    def test_matrix_covers_issue_floor(self):
        """>= 3 families x all 3 schedules x loss in {0, 0.1}, seeds pinned."""
        families = {s.family for s in SCENARIO_MATRIX}
        schedules = {s.schedule for s in SCENARIO_MATRIX}
        losses = {s.loss_prob for s in SCENARIO_MATRIX}
        assert len(families) >= 3
        assert schedules == {"sync", "random", "staggered"}
        assert losses == {0.0, 0.1}
        # Pinned and non-degenerate: every cell distinct, seeds fixed
        # constants (1000 + 100*family + 10*schedule + loss index).
        cells = {(s.family, s.schedule, s.loss_prob) for s in SCENARIO_MATRIX}
        assert len(cells) == len(SCENARIO_MATRIX) == 24
        assert len({s.seed for s in SCENARIO_MATRIX}) == 24
        assert SCENARIO_MATRIX[0].seed == 1000

    def test_run_matrix_parallel_matches_serial(self):
        subset = SCENARIO_MATRIX[:3]
        serial = run_matrix(subset, workers=1)
        parallel = run_matrix(subset, workers=2)
        assert [r.ok for r in serial] == [r.ok for r in parallel]
        assert [r.slots for r in serial] == [r.slots for r in parallel]
        assert [r.classic_totals for r in serial] == [
            r.classic_totals for r in parallel
        ]


class TestPhyMatrix:
    """The pinned non-default-PHY scenarios: unaligned vs aligned, and
    both engine paths on a multi-channel PHY."""

    @pytest.mark.parametrize(
        "scenario", phy_matrix(), ids=_labels(phy_matrix())
    )
    def test_paths_conform(self, scenario):
        report = run_scenario(scenario)
        assert report.ok, report.describe()
        for name in ("tx", "rx", "collisions", "lost"):
            assert report.classic_totals[name] == report.vectorized_totals[name]

    def test_matrix_covers_new_paths(self):
        phys = {s.phy for s in PHY_MATRIX}
        assert phys == {"unaligned", "multichannel"}
        # Loss exercised on the unaligned path (shared loss-child streams).
        assert any(s.phy == "unaligned" and s.loss_prob > 0 for s in PHY_MATRIX)
        # More than two channels exercised at least once.
        assert any(s.channels >= 3 for s in PHY_MATRIX)
        assert len({s.seed for s in PHY_MATRIX}) == len(PHY_MATRIX)

    def test_unaligned_comparison_includes_draw_counters(self):
        """The unaligned lockstep compares all six metric columns —
        protocol and loss draw counts included — so stream-coupling
        regressions on either engine surface as divergences."""
        report = run_scenario(PHY_MATRIX[1])  # unaligned, loss=0.1
        assert report.ok
        assert report.classic_totals["loss_draws"] > 0
        assert report.classic_totals == report.vectorized_totals

    def test_scenario_phy_validation(self):
        with pytest.raises(ValueError, match="phy"):
            Scenario(phy="bogus")
        with pytest.raises(ValueError, match="channels"):
            Scenario(channels=0)
        with pytest.raises(ValueError, match="multichannel"):
            Scenario(channels=2)  # channels > 1 needs phy='multichannel'
        with pytest.raises(ValueError):
            Scenario(phy="unaligned", channels=2)

    def test_phy_fields_in_label_and_replay(self):
        s = Scenario(phy="multichannel", channels=2, param_scale=2.0)
        assert "phy=multichannel" in s.label() and "k=2" in s.label()
        assert "--phy multichannel" in s.cli_args()
        assert "--channels 2" in s.cli_args()
        # Default-phy labels are unchanged (pinned in reports and ids).
        assert "phy=" not in SCENARIO_MATRIX[0].label()


@pytest.mark.conform
class TestLocalizerRegression:
    """The localizer must name the exact slot and node of a known bug."""

    SCENARIO = Scenario(family="udg", n=16, degree=5.0, seed=500)

    def _first_broken_tx_slot(self):
        """Derive the expected divergence point from a *clean* run: the
        first slot in which the broken vid transmits a CounterMessage is
        exactly where OffByOneCounterNode first misreports."""
        clean = run_scenario(self.SCENARIO)
        assert clean.ok
        dep, params, wake = self.SCENARIO.build()
        pair = build_lockstep(
            dep, params, wake, seed=self.SCENARIO.seed, loss_prob=0.0
        )
        while pair.classic.slot <= clean.slots:
            pair.classic.step()
        for e in pair.classic.trace.events:
            if (
                e.kind == "tx"
                and e.node == OffByOneCounterNode.BROKEN_VID
                and isinstance(e.data["msg"], CounterMessage)
            ):
                return e.slot
        raise AssertionError("broken vid never sent a counter message")

    def test_off_by_one_counter_localized_exactly(self):
        expected_slot = self._first_broken_tx_slot()
        report = run_scenario(
            self.SCENARIO, vectorized_node_cls=OffByOneCounterNode
        )
        assert not report.ok
        d = report.divergence
        assert d is not None
        assert d.slot == expected_slot
        assert d.node == OffByOneCounterNode.BROKEN_VID
        assert d.field == "tx.msg"
        # The payloads differ by exactly the injected off-by-one.
        assert d.vectorized.counter == d.classic.counter + 1

    def test_reproducer_replays_the_divergence(self):
        report = run_scenario(
            self.SCENARIO, vectorized_node_cls=OffByOneCounterNode
        )
        repro_spec = report.divergence.reproducer()
        replayed = run_scenario(
            Scenario(
                family=repro_spec["family"],
                n=repro_spec["n"],
                degree=repro_spec["degree"],
                schedule=repro_spec["schedule"],
                loss_prob=repro_spec["loss_prob"],
                seed=repro_spec["seed"],
                param_scale=repro_spec["param_scale"],
            ),
            max_slots=repro_spec["max_slots"],
            vectorized_node_cls=OffByOneCounterNode,
        )
        assert not replayed.ok
        assert replayed.divergence.slot == report.divergence.slot
        assert replayed.divergence.node == report.divergence.node
        assert replayed.divergence.field == report.divergence.field
        # Minimized: the replay stops right at the divergent slot.
        assert replayed.slots == repro_spec["max_slots"]

    @pytest.mark.parametrize(
        "scenario",
        [
            BLOCK_MATRIX[-1],
            next(s for s in ARENA_MATRIX if s.protocol == "mis" and s.channels > 1),
        ],
        ids=["block", "mis"],
    )
    def test_reproducer_is_the_full_scenario_record(self, scenario):
        """The reproducer carries every scenario field (block size and
        protocol included), so the spec replays the same comparison."""
        spec = Divergence(
            slot=41, node=3, field="tx", classic=None, vectorized=None,
            scenario=scenario,
        ).reproducer()
        assert spec.pop("max_slots") == 42
        assert Scenario(**spec) == scenario

    def test_late_activation_localized(self):
        report = run_scenario(
            self.SCENARIO, vectorized_node_cls=LateActivationNode
        )
        assert not report.ok
        d = report.divergence
        assert d.node is not None
        assert "replay:" in d.describe()

    def test_describe_names_slot_and_node(self):
        report = run_scenario(
            self.SCENARIO, vectorized_node_cls=OffByOneCounterNode
        )
        text = report.describe()
        assert f"slot {report.divergence.slot}" in text
        assert f"node {report.divergence.node}" in text
        assert "--max-slots" in text


class TestHarnessPlumbing:
    def test_shim_population_runs_classic_path(self):
        dep, params, wake = quick_matrix()[0].build()
        pair = build_lockstep(dep, params, wake, seed=1)
        assert not pair.classic.vectorized
        assert pair.vectorized.vectorized

    def test_slot_uniform_source_matches_engine_stream(self):
        """uniforms(t)[v] must be byte-identical to the t-th random(n)
        vector of an identically seeded generator."""
        seq = np.random.SeedSequence(entropy=7, spawn_key=(0xC04F,))
        source = SlotUniformSource(spawn_generator(7, 0xC04F), 5)
        reference = np.random.Generator(np.random.PCG64(seq))
        expected = [reference.random(5) for _ in range(4)]
        assert np.array_equal(source.uniforms(0), expected[0])
        assert np.array_equal(source.uniforms(0), expected[0])  # cached
        # Fast-forward burns the skipped slots' vectors.
        assert np.array_equal(source.uniforms(3), expected[3])
        with pytest.raises(RuntimeError):
            source.uniforms(1)

    def test_scenario_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            Scenario(family="hypercube")
        with pytest.raises(ValueError):
            Scenario(schedule="chaotic")
        with pytest.raises(ValueError):
            Scenario(n=0)

    def test_scenario_build_is_reproducible(self):
        s = SCENARIO_MATRIX[5]
        dep_a, _, wake_a = s.build()
        dep_b, _, wake_b = s.build()
        assert np.array_equal(wake_a, wake_b)
        assert sorted(dep_a.graph.edges) == sorted(dep_b.graph.edges)

    def test_random_scenarios_stream_is_seeded(self):
        stream_a = random_scenarios(3)
        stream_b = random_scenarios(3)
        assert [next(stream_a) for _ in range(5)] == [
            next(stream_b) for _ in range(5)
        ]

    def test_localize_slot_none_on_equal(self):
        events = [TraceEvent(4, 1, "tx", {"msg": "m"})]
        assert localize_slot(4, events, list(events)) is None

    def test_localize_slot_missing_event(self):
        a = [TraceEvent(4, 1, "tx", {"msg": "m"})]
        d = localize_slot(4, a, [])
        assert d.node == 1 and d.field == "tx"
        assert d.classic is not None and d.vectorized is None


@pytest.mark.conform
class TestFuzz:
    def test_small_budgeted_fuzz_conforms(self):
        result = fuzz(0, budget_s=5.0, max_scenarios=3)
        assert result.ok, result.describe()
        assert 1 <= result.scenarios <= 3
        assert len(result.reports) >= result.scenarios
        assert "all conform" in result.describe()

    def test_fuzz_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            fuzz(0, budget_s=0.0)


class TestMaxSlotsBudget:
    def test_budget_cuts_run_short_without_divergence(self):
        report = run_scenario(quick_matrix()[0], max_slots=50)
        assert report.ok
        assert not report.completed
        assert report.slots == 50
        assert "slot budget hit" in report.describe()
