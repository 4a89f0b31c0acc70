"""Tests for the parallel sweep executor (serial/parallel equivalence,
fallbacks, crash containment, telemetry) and the Table CSV formatting."""

import os
from functools import partial

import pytest

from repro.experiments.e1_correctness import _one as e1_one
from repro.experiments.io import load_sweep_telemetry, save_sweep_telemetry
from repro.experiments.parallel import (
    RunTelemetry,
    collect_telemetry,
    default_workers,
    resolve_seeds,
    run_sweep,
    shared_build,
    shared_build_stats,
)
from repro.experiments.runner import Table, aggregate, sweep_seeds


def _square(seed):
    return {"seed": seed, "slots": seed * seed, "tx_total": seed + 3}


def _boom(seed):
    raise ValueError(f"bad seed {seed}")


def _crash_in_child(parent_pid, seed):
    # Kills only worker processes: in the parent's serial retry the pid
    # matches and the run succeeds.
    if os.getpid() != parent_pid:
        os._exit(3)
    return {"seed": seed}


class TestResolveSeeds:
    def test_count_matches_serial_derivation(self):
        # sweep_seeds historically derived child seeds from RngStream;
        # resolve_seeds must reproduce that list exactly.
        via_sweep = [r["seed"] for r in sweep_seeds(_square, seeds=6, master_seed=9)]
        assert resolve_seeds(6, 9) == via_sweep

    def test_iterable_passthrough(self):
        assert resolve_seeds([4, 5, 6]) == [4, 5, 6]

    def test_distinct_masters_distinct_seeds(self):
        assert resolve_seeds(4, 0) != resolve_seeds(4, 1)


class TestSerialParallelEquivalence:
    def test_module_level_fn(self):
        serial = run_sweep(_square, seeds=10, master_seed=2, workers=1)
        par = run_sweep(_square, seeds=10, master_seed=2, workers=3)
        assert serial == par

    def test_experiment_partial(self):
        fn = partial(e1_one, 20, 6.0, "synchronous")
        serial = run_sweep(fn, seeds=2, master_seed=5, workers=1)
        par = run_sweep(fn, seeds=2, master_seed=5, workers=2)
        assert serial == par

    def test_chunksize_irrelevant_to_results(self):
        base = run_sweep(_square, seeds=9, workers=1)
        for chunksize in (1, 2, 100):
            assert run_sweep(_square, seeds=9, workers=2, chunksize=chunksize) == base

    def test_explicit_seed_list(self):
        serial = run_sweep(_square, seeds=[3, 1, 4, 1, 5], workers=1)
        par = run_sweep(_square, seeds=[3, 1, 4, 1, 5], workers=2)
        assert serial == par
        assert [r["seed"] for r in par] == [3, 1, 4, 1, 5]


class TestFallbacks:
    def test_lambda_falls_back_to_serial(self):
        # Lambdas cannot cross a process boundary; the sweep must still
        # complete (in-process) with identical results.
        res = run_sweep(lambda s: {"s": s}, seeds=[7, 8], workers=4)
        assert res == [{"s": 7}, {"s": 8}]

    def test_single_seed_stays_serial(self):
        assert run_sweep(_square, seeds=[5], workers=8) == [_square(5)]

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(_square, seeds=2, workers=-1)

    def test_worker_crash_retried_serially(self):
        fn = partial(_crash_in_child, os.getpid())
        res = run_sweep(fn, seeds=[1, 2, 3, 4], workers=2, chunksize=1)
        assert res == [{"seed": s} for s in [1, 2, 3, 4]]

    def test_deterministic_exception_propagates(self):
        # fn bugs are not swallowed by crash containment: the serial
        # retry hits the same exception and raises it.
        with pytest.raises(ValueError, match="bad seed"):
            run_sweep(_boom, seeds=[1, 2], workers=2)
        with pytest.raises(ValueError, match="bad seed"):
            run_sweep(_boom, seeds=[1, 2], workers=1)


class TestWorkerDefaults:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "0")
        assert default_workers() == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "not-a-number")
        assert default_workers() == 1

    def test_env_drives_sweep_results_unchanged(self, monkeypatch):
        base = run_sweep(_square, seeds=6, workers=1)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        assert run_sweep(_square, seeds=6) == base


class TestTelemetry:
    def test_collects_per_run_counters(self):
        with collect_telemetry() as tel:
            run_sweep(_square, seeds=[2, 3], workers=1)
        assert [t.seed for t in tel] == [2, 3]
        assert [t.slots for t in tel] == [4, 9]
        assert [t.tx for t in tel] == [5, 6]
        assert all(t.wall_s >= 0 for t in tel)

    def test_collected_in_parallel_mode_too(self):
        with collect_telemetry() as tel:
            run_sweep(_square, seeds=8, workers=2)
        assert len(tel) == 8

    def test_explicit_sink(self):
        sink = []
        run_sweep(_square, seeds=3, telemetry=sink)
        assert len(sink) == 3 and all(isinstance(t, RunTelemetry) for t in sink)

    def test_non_dict_results_tolerated(self):
        with collect_telemetry() as tel:
            run_sweep(lambda s: s * 1.5, seeds=[2], workers=1)
        assert tel[0].slots is None and tel[0].tx is None

    def test_round_trip(self, tmp_path):
        with collect_telemetry() as tel:
            run_sweep(_square, seeds=4, workers=1)
        path = save_sweep_telemetry(tel, tmp_path / "tel.json")
        assert load_sweep_telemetry(path) == tel


class TestSharedBuild:
    def test_builds_once_per_key(self):
        shared_build_stats(reset=True)
        calls = []
        for _ in range(3):
            value = shared_build("k", lambda: calls.append(1) or "built")
        assert value == "built" and len(calls) == 1
        stats = shared_build_stats()
        assert stats["misses"] == 1 and stats["hits"] == 2

    def test_distinct_keys_distinct_builds(self):
        shared_build_stats(reset=True)
        assert shared_build(("a", 1), lambda: 1) == 1
        assert shared_build(("a", 2), lambda: 2) == 2
        assert shared_build_stats()["misses"] == 2

    def test_unhashable_key_rejected(self):
        with pytest.raises(TypeError, match="hashable"):
            shared_build(["list", "key"], lambda: 1)


class TestReplicaMode:
    """E6/E13 ``replicas=`` mode: R protocol seeds per configuration on
    one shared deployment, each an ordinary block-stepped
    ``run_coloring``.  The rows are pinned to the values the former
    cross-replica engine batch produced (replica ``r`` was byte-identical
    to the solo run with the same seed), so any trajectory change in the
    replica sweep fails here."""

    def test_e6_replica_sweep_rows_pinned(self):
        from repro.experiments import e6_constants

        shared_build_stats(reset=True)
        rows = sweep_seeds(
            partial(e6_constants._one_shared, 0.5, n=40, degree=8.0),
            seeds=3,
            master_seed=50,  # int(scale * 100), as in e6_constants.run
            workers=1,
        )
        assert rows == [
            {"ok": True, "t_max": 3446.0, "t_mean": 2027.8, "gamma": 7.0,
             "threshold": 751},
            {"ok": True, "t_max": 3218.0, "t_mean": 1941.775, "gamma": 7.0,
             "threshold": 751},
            {"ok": False, "t_max": 3203.0, "t_mean": 1944.15, "gamma": 7.0,
             "threshold": 751},
        ]
        # One deployment per scale, built once and shared by every seed.
        assert shared_build_stats() == {"hits": 2, "misses": 1}

    def test_e13_aligned_replica_rows_pinned(self):
        from repro.experiments import e13_unaligned

        rows = sweep_seeds(
            partial(e13_unaligned._one_shared, False, 0.0, n=40, degree=8.0),
            seeds=3,
            master_seed=e13_unaligned._SHARED_GRAPH_SEED,
            workers=1,
        )
        assert rows == [
            {"ok": True, "t_max": 7300.0, "t_mean": 4317.925,
             "rx_per_tx": 3.65810718801673},
            {"ok": True, "t_max": 7532.0, "t_mean": 4578.625,
             "rx_per_tx": 4.543710263396912},
            {"ok": True, "t_max": 9963.0, "t_mean": 4722.325,
             "rx_per_tx": 3.6810131658089955},
        ]


class TestTableCsvFormatting:
    def test_csv_uses_fmt(self):
        t = Table("t")
        t.add(ok=True, ratio=0.123456789, big=12345.678, n=3)
        t.add(ok=False, ratio=float("nan"), big=1.0, n=4)
        csv_text = t.to_csv()
        # Booleans and floats must match the rendered table, not repr().
        assert "yes" in csv_text and "no" in csv_text
        assert "True" not in csv_text and "False" not in csv_text
        assert "0.123456789" not in csv_text
        assert Table._fmt(0.123456789) in csv_text
        assert "nan" in csv_text

    def test_aggregate_exported(self):
        from repro.experiments import runner

        assert "aggregate" in runner.__all__
        agg = aggregate([{"x": 1.0}, {"x": 3.0}], "x")
        assert agg == {"mean": 2.0, "max": 3.0}
