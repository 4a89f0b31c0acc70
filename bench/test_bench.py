"""Tests of the benchmark harness: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from bench import compare, layers, run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name: str) -> run.Workload:
    """The workload at a size that runs in well under a second."""
    return dataclasses.replace(run.WORKLOADS[name], n=24)


@pytest.fixture
def small_workloads(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(run, "WORKLOADS", {name: small(name) for name in run.WORKLOADS})


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_harness_emits_every_declared_metric(
    name: str, trace: int, small_workloads: None, capsys: pytest.CaptureFixture[str]
) -> None:
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    last = json.loads(out[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in last["metrics"].items()} == {d["name"]: d["unit"] for d in declared}
    assert all(isinstance(v["value"], float) for v in last["metrics"].values())
    suite = json.loads(next(line for line in out if line.startswith("suite: "))[len("suite: "):])
    assert set(suite) == (set() if trace else {d["name"] for d in compare.SUITE_METRICS})


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_and_untraced_outputs_match(name: str) -> None:
    m = run.measure(small(name), seed=5, seconds=0, traced=True)
    assert not m.failures
    assert [r.digest for r in m.runs] == [r.digest for r in m.traced]
    assert m.outputs() == run.measure(small(name), seed=5, seconds=0, traced=False).outputs()


def test_output_differing_from_its_pin_fails() -> None:
    w = small("sync-contended")
    good = run.measure(w, seed=5, seconds=0, traced=False)
    pins = [{"slots": r.slots, "digest": r.digest} for r in good.runs if r is not None]
    assert not run.measure(w, seed=5, seconds=0, traced=False, pins=pins).failures
    pins[1] = dict(pins[1], digest="0" * 64)
    failures = run.measure(w, seed=5, seconds=0, traced=False, pins=pins).failures
    assert len(failures) == 1 and failures[0].startswith("run 1: output differs from pin")


def _attributes() -> dict[tuple[int, str], object]:
    return {
        (id(owner), name): vars(owner).get(name)
        for _, owner, names, _ in layers.targets()
        for name in names
    }


def test_traced_pass_restores_wrapped_attributes() -> None:
    before = _attributes()
    tracer = layers.Tracer()
    with layers.installed(tracer):
        assert _attributes() != before
        run.run_once(small("sync-contended"), 5, 0, tracer=tracer)
    assert _attributes() == before
    with pytest.raises(RuntimeError), layers.installed(layers.Tracer()):
        raise RuntimeError("a failing run")
    assert _attributes() == before


def test_self_times_cover_the_traced_run() -> None:
    tracer = layers.Tracer()
    with layers.installed(tracer):
        r = run.run_once(small("e1-sweep"), 5, 0, tracer=tracer)
    assert tracer.covered() == pytest.approx(r.wall_s, rel=0.05)
    assert tracer.layer("engine")[2] == 1  # run -> step_block -> step counted once


def test_span_dump_links_fire_slots_to_their_run(tmp_path: Path) -> None:
    m = run.measure(small("sync-contended"), seed=5, seconds=0, traced=True)
    assert m.tracer is not None
    path = tmp_path / "spans.jsonl"
    m.tracer.dump_spans(str(path), m.origin)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert {"setup.graphs", "setup.params", "protocol.build", "engine", "verify"} <= {s["name"] for s in spans}
    fire = [s for s in spans if s["name"] in ("phy.resolve", "core.deliver")]
    assert fire
    for s in fire:
        parent = spans[s["parent"]]
        assert parent["name"] == "engine" and parent["run"] == s["run"]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def _record(seed: int = 0) -> dict[str, object]:
    e2e = {
        d["name"]: {"unit": d["unit"], "median": 2.0, "min": 1.95, "max": 2.05, "n": 3}
        for d in SPEC["end_to_end"] + compare.SUITE_METRICS
    }
    e2e["failed_frac"] = {"unit": "frac", "median": 0.0, "min": 0.0, "max": 0.0, "n": 1}
    outputs = {"digest": "ab" * 32, "sim_slots": 1000, "colors_max": 20}
    return {
        "seed": seed,
        "workloads": {name: {"end_to_end": copy.deepcopy(e2e), "outputs": dict(outputs)} for name in run.WORKLOADS},
    }


def test_compare_passes_identical_records() -> None:
    lines, bad = compare.compare(_record(), _record(), SPEC)
    assert not bad
    assert all(line.endswith("same") for line in lines)


def test_compare_flags_slower_wall_time() -> None:
    slower = _record()
    wall = slower["workloads"]["sync-contended"]["end_to_end"]["wall_s"]  # type: ignore[index]
    within = copy.deepcopy(slower)
    for key in ("median", "min", "max"):
        wall[key] *= 1.3  # beyond the 25% bound
        within["workloads"]["sync-contended"]["end_to_end"]["wall_s"][key] *= 1.2  # type: ignore[index]
    assert not compare.compare(_record(), within, SPEC)[1]
    lines, bad = compare.compare(_record(), slower, SPEC)
    assert bad
    assert [line for line in lines if line.endswith("worse")] == [
        line for line in lines if line.startswith("sync-contended wall_s")
    ]


def test_compare_flags_digest_change_and_new_failures() -> None:
    changed = _record()
    changed["workloads"]["e1-sweep"]["outputs"]["digest"] = "cd" * 32  # type: ignore[index]
    lines, bad = compare.compare(_record(), changed, SPEC)
    assert bad and any("e1-sweep digest: FAIL" in line for line in lines)
    failing = _record()
    failing["workloads"]["e1-sweep"]["end_to_end"]["failed_frac"]["median"] = 0.5  # type: ignore[index]
    assert compare.compare(_record(), failing, SPEC)[1]


def test_compare_cli_exit_codes(tmp_path: Path) -> None:
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_record()))
    b.write_text(json.dumps(_record()))
    assert compare.main([str(a), str(b)]) == 0
    changed = _record()
    changed["workloads"]["sync-contended"]["outputs"]["sim_slots"] = 1001  # type: ignore[index]
    b.write_text(json.dumps(changed))
    assert compare.main([str(a), str(b)]) == 1


def test_unknown_workload_names_the_choices() -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "nope", "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "nope" in proc.stderr
    assert all(name in proc.stderr for name in run.WORKLOADS)
    assert proc.stdout == ""
