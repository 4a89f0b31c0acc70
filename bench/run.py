"""End-to-end benchmark: ``run_coloring`` from deployment to verified coloring.

Run from the repository root::

    python3 bench/run.py --workload sync-contended --seed 0 --seconds 36 --trace 0
    PYTHONPATH=src python3 -m bench.run --seed 0 [--out FILE]

With ``--workload`` one workload is measured in this process for about
``--seconds`` seconds, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.

Without ``--workload`` the suite runs every workload in a fresh child
process, one at a time, round-robin for three rounds, then one traced
pass per workload as long as the three rounds; it prints every metric
with its median, min, max and sample count, and exits non-zero if any
run failed.  See README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    # One process, one thread: numerical libraries must not fan out.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    for _path in (ROOT, ROOT / "src"):
        if str(_path) not in sys.path:
            sys.path.insert(0, str(_path))

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import zlib  # noqa: E402
from collections.abc import Sequence  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any  # noqa: E402

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import Parameters, run_coloring  # noqa: E402
from repro.analysis import verify_run  # noqa: E402
from repro.core.vector_node import BernoulliColoringNode  # noqa: E402
from repro.graphs import random_udg  # noqa: E402
from repro.wakeup import synchronous, uniform_random  # noqa: E402

from bench.compare import SUITE_METRICS  # noqa: E402
from bench.layers import Tracer, installed  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"
#: rounds of the suite's round-robin; with three samples per metric the
#: suite reports median, min and max, never a tail percentile.
ROUNDS = 3
#: the seed whose outputs are pinned in pins.json.
PIN_SEED = 0
#: suite-only end-to-end metrics: exact outputs and the failure share.
SUITE_ONLY = {"failed_frac": "frac", "sim_slots": "count", "colors_max": "count"}
CHILD_TIMEOUT_S = 900
#: runs every invocation makes, whatever ``--seconds`` is; their outputs
#: are the pinned ones.
MIN_RUNS = 2
#: inputs set up (and not run) per run, so ``setup_s`` has more samples.
EXTRA_SETUPS = 4
#: extra timed ``verify_run`` calls per untraced run: one call takes under
#: a millisecond, too short to time once.
VERIFY_REPEATS = 20


@dataclass(frozen=True)
class Workload:
    """One set of inputs: a family of deployments and how each is run.

    Every run ``i`` of a workload draws a fresh deployment, wake schedule
    and simulation seed from ``(--seed, workload name, i)``.
    """

    name: str
    n: int
    degree: float
    #: "synchronous", "uniform" (over ``window * n`` slots), or
    #: "alternate" (synchronous on even runs, uniform on odd ones).
    wake: str
    window: int = 0
    #: ``Parameters.for_deployment`` (exact kappa) instead of
    #: ``Parameters.practical(n, Delta, 5, 18)``; both at ``scale``.
    exact_kappa: bool = False
    #: the practical constants' scale.  At 1 about one run in a hundred
    #: fails verification (a proper-coloring violation); the benchmark
    #: doubles the expected receptions per critical range instead.
    scale: float = 1.0
    connected: bool = False
    #: extra ``run_coloring`` keyword arguments.
    options: tuple[tuple[str, Any], ...] = ()
    #: runs are made in whole batches (the sweep alternates wake-ups).
    batch: int = 1


_FAST = (("node_cls", BernoulliColoringNode), ("block", 4096), ("trace_level", 0))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("sync-contended", n=120, degree=12, wake="synchronous", scale=2.0, options=_FAST),
        Workload(
            "async-lossy-2ch",
            n=80,
            degree=12,
            wake="uniform",
            window=20,
            scale=4.0,
            options=_FAST + (("channels", 2), ("loss_prob", 0.2)),
        ),
        Workload(
            "e1-sweep",
            n=60,
            degree=14,
            wake="alternate",
            window=30,
            exact_kappa=True,
            scale=2.0,
            connected=True,
            batch=2,
        ),
    )
}


@dataclass
class Run:
    """Timings and outputs of one run; ``problem`` is empty when it passed."""

    setup_s: float
    run_s: float
    verify_s: float
    slots: int
    fire_slots: int
    totals: dict[str, int]
    colors: int
    digest: str
    problem: str
    #: timings of the repeated ``verify_run`` calls after the first.
    verify_repeats: tuple[float, ...] = ()

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + self.verify_s


def load_spec() -> dict[str, Any]:
    """BENCHMARK.json: metric names, units, bounds and the run length."""
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def run_seeds(seed: int, workload: str, *index: int) -> tuple[int, int, int]:
    """Graph, wake and simulation seeds of the inputs at ``index``."""
    state = np.random.SeedSequence([seed, zlib.crc32(workload.encode()), *index]).generate_state(3)
    g, w, s = (int(x) for x in state)
    return g, w, s


def output_digest(result: Any) -> str:
    """sha256 over a run's colors, slot count and channel-metric totals."""
    h = hashlib.sha256(np.ascontiguousarray(result.colors, dtype=np.int64).tobytes())
    totals = result.trace.channel_metrics.totals()
    h.update(json.dumps({"slots": result.slots, **totals}, sort_keys=True).encode())
    return h.hexdigest()


def _untraced(layer: str) -> nullcontext[None]:
    return nullcontext()


def set_up(w: Workload, seed: int, index: tuple[int, ...], span: Any = _untraced) -> tuple[Any, Any, Parameters]:
    """Deployment, wake schedule and parameters of the inputs at ``index``."""
    g_seed, w_seed, _ = run_seeds(seed, w.name, *index)
    with span("setup.graphs"):
        dep = random_udg(w.n, expected_degree=w.degree, seed=g_seed, connected=w.connected)
        if w.wake == "synchronous" or (w.wake == "alternate" and index[-1] % 2 == 0):
            wake = synchronous(dep.n)
        else:
            wake = uniform_random(dep.n, window=w.window * dep.n, seed=w_seed)
    with span("setup.params"):
        if w.exact_kappa:
            params = Parameters.for_deployment(dep, scale=w.scale)
        else:
            params = Parameters.practical(dep.n, max(2, dep.max_degree), 5, 18, scale=w.scale)
    return dep, wake, params


def run_once(w: Workload, seed: int, i: int, tracer: Tracer | None = None, verify_repeats: int = 0) -> Run:
    """Build, run and verify run ``i`` of ``w``, then time
    ``verify_repeats`` more ``verify_run`` calls on its result."""
    span = tracer.span if tracer is not None else _untraced
    t0 = perf_counter()
    dep, wake, params = set_up(w, seed, (i,), span)
    t1 = perf_counter()
    result = run_coloring(dep, params, wake, seed=run_seeds(seed, w.name, i)[2], **dict(w.options))
    t2 = perf_counter()
    with span("verify"):
        report = verify_run(result)
    t3 = perf_counter()
    repeats = []
    for _ in range(verify_repeats):
        t = perf_counter()
        verify_run(result)
        repeats.append(perf_counter() - t)
    problems = []
    if not result.completed:
        problems.append("did not complete")
    if not report.ok:
        problems.append(report.describe())
    tx = result.trace.channel_metrics.tx
    return Run(
        setup_s=t1 - t0,
        run_s=t2 - t1,
        verify_s=t3 - t2,
        slots=result.slots,
        fire_slots=len(tx) - tx.count(0),
        totals=result.trace.channel_metrics.totals(),
        colors=result.num_colors,
        digest=output_digest(result),
        problem="; ".join(problems),
        verify_repeats=tuple(repeats),
    )


def attempt(w: Workload, seed: int, i: int, tracer: Tracer | None = None, verify_repeats: int = 0) -> Run | None:
    """:func:`run_once`, reporting an exception as a failed run (None)."""
    try:
        if tracer is None:
            return run_once(w, seed, i, verify_repeats=verify_repeats)
        with installed(tracer):
            tracer.run = i
            return run_once(w, seed, i, tracer=tracer)
    except Exception as exc:  # a failed run is counted, not fatal
        print(f"# {w.name} run {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def load_pins(workload: str, seed: int) -> list[dict[str, Any]]:
    """Pinned ``{"slots", "digest"}`` per run index, for the pin seed only."""
    if seed != PIN_SEED or not PINS_PATH.exists():
        return []
    with open(PINS_PATH, encoding="utf-8") as f:
        return list(json.load(f).get(workload, []))


def write_pins(workload: str, runs: list[Run]) -> None:
    pins: dict[str, Any] = {}
    if PINS_PATH.exists():
        with open(PINS_PATH, encoding="utf-8") as f:
            pins = json.load(f)
    pins[workload] = [{"slots": r.slots, "digest": r.digest} for r in runs]
    with open(PINS_PATH, "w", encoding="utf-8") as f:
        json.dump(dict(sorted(pins.items())), f, indent=2)
        f.write("\n")


@dataclass
class Measurement:
    """What one invocation measured: untraced runs, and in a traced
    invocation the traced run of the same inputs beside each."""

    workload: Workload
    runs: list[Run | None]
    traced: list[Run | None]
    #: set-up times of the extra inputs.
    setups: list[float]
    failures: list[str]
    tracer: Tracer | None
    origin: float

    @property
    def attempted(self) -> int:
        return len(self.runs)

    def outputs(self) -> dict[str, Any]:
        """Exact outputs of the first :data:`MIN_RUNS` runs (pinned at seed 0)."""
        first = [r for r in self.runs[:MIN_RUNS] if r is not None]
        digests = [r.digest for r in first]
        return {
            "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
            "digests": digests,
            "sim_slots": sum(r.slots for r in first),
            "colors_max": max((r.colors for r in first), default=0),
        }


def time_set_up(w: Workload, seed: int, i: int, j: int) -> float:
    """Seconds to set up extra inputs ``(i, j)``, which are not run."""
    t0 = perf_counter()
    set_up(w, seed, (i, j))
    return perf_counter() - t0


def measure(w: Workload, seed: int, seconds: float, traced: bool, pins: Sequence[dict[str, Any]] = ()) -> Measurement:
    """Run ``w`` in batches until the next batch would end after
    ``seconds`` (at least :data:`MIN_RUNS` runs).  Untraced invocations also
    set up :data:`EXTRA_SETUPS` more inputs per run for ``setup_s`` and
    verify each result :data:`VERIFY_REPEATS` more times for ``verify_s``;
    traced ones run each input untraced and traced, alternating which
    goes first.  Run ``i`` must reproduce ``pins[i]`` where given.  Every
    timed run starts after a full garbage collection, so a collection the
    previous run's garbage triggers does not land in the next run's
    timings."""
    # Warm-up at full size: the first run in a process also pays lazy
    # imports and the heap growing to its working set.
    run_once(w, seed + 1, 0)
    tracer = Tracer() if traced else None
    runs: list[Run | None] = []
    traced_runs: list[Run | None] = []
    setups: list[float] = []
    failures: list[str] = []
    origin = start = perf_counter()
    i = 0
    while True:
        if tracer is None:
            gc.collect()
            plain = other = attempt(w, seed, i, verify_repeats=VERIFY_REPEATS)
            gc.collect()
            setups += [time_set_up(w, seed, i, j) for j in range(EXTRA_SETUPS)]
        else:
            done: dict[Tracer | None, Run | None] = {}
            for side in (None, tracer) if i % 2 == 0 else (tracer, None):
                gc.collect()
                done[side] = attempt(w, seed, i, side)
            plain, other = done[None], done[tracer]
            traced_runs.append(other)
        runs.append(plain)
        problem = _check(plain, other, pins[i] if i < len(pins) else None)
        if problem:
            failures.append(f"run {i}: {problem}")
        i += 1
        elapsed = perf_counter() - start
        if i >= MIN_RUNS and i % w.batch == 0 and elapsed * (i + w.batch) / i > seconds:
            break
    return Measurement(w, runs, traced_runs, setups, failures, tracer, origin)


def _check(plain: Run | None, traced: Run | None, pin: dict[str, Any] | None) -> str:
    """Why a run failed, or an empty string."""
    if plain is None or traced is None:
        return "raised"
    if plain.problem or traced.problem:
        return plain.problem or traced.problem
    if traced.digest != plain.digest:
        return "traced output differs from untraced output"
    if pin is not None and (plain.slots, plain.digest) != (pin["slots"], pin["digest"]):
        return f"output differs from pin ({plain.slots} slots, pinned {pin['slots']})"
    return ""


def end_to_end(m: Measurement) -> dict[str, float]:
    """End-to-end metric values over the runs that passed: those of
    ``BENCHMARK.json`` and the suite's per-run times (:data:`SUITE_METRICS`)."""
    ok = [r for r in m.runs if r is not None and not r.problem]
    if not ok:
        return {}
    run_total = sum(r.run_s for r in ok)
    return {
        "setup_s": statistics.median([r.setup_s for r in ok] + m.setups),
        "run_s": statistics.median(r.run_s for r in ok),
        "verify_s": statistics.median([r.verify_s for r in ok] + [t for r in ok for t in r.verify_repeats]),
        "wall_s": statistics.median(r.wall_s for r in ok),
        "slots_per_s": sum(r.slots for r in ok) / run_total,
        "deliveries_per_s": sum(r.totals["rx"] for r in ok) / run_total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(m: Measurement) -> dict[str, float]:
    """Per-layer metric values: busy times and counts are means per
    traced run; ratios are taken over sums, except the tracing overhead,
    the median over inputs of traced / untraced wall time."""
    tracer = m.tracer
    pairs = [(p, t) for p, t in zip(m.runs, m.traced) if p is not None and t is not None]
    if tracer is None or not pairs:
        return {}
    k = len(pairs)
    traced = [t for _, t in pairs]
    slots = sum(t.slots for t in traced)
    fire = sum(t.fire_slots for t in traced)
    tx, rx = (sum(t.totals[c] for t in traced) for c in ("tx", "rx"))
    traced_wall = sum(t.wall_s for t in traced)

    def busy(layer: str) -> float:
        return tracer.layer(layer)[0] / k

    def calls(layer: str) -> float:
        return tracer.layer(layer)[2] / k

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "setup.graphs.busy_s": busy("setup.graphs"),
        "setup.params.busy_s": busy("setup.params"),
        "protocol.build.busy_s": busy("protocol.build"),
        "engine.self_s": tracer.layer("engine")[1] / k,
        "engine.slots": slots / k,
        "engine.fire_slots": fire / k,
        "engine.fire_ratio": ratio(fire, slots),
        "rng.busy_s": busy("rng"),
        "rng.calls": calls("rng"),
        "node.emit.busy_s": busy("node.emit"),
        "node.emit.calls": calls("node.emit"),
        "node.event.busy_s": busy("node.event"),
        "node.event.calls": calls("node.event"),
        "core.record_tx.busy_s": busy("core.record_tx"),
        "phy.resolve.busy_s": busy("phy.resolve"),
        "phy.resolve.calls": calls("phy.resolve"),
        "phy.candidates": tracer.candidates / k,
        "phy.resolve.us_per_tx": ratio(tracer.layer("phy.resolve")[0], tx) * 1e6,
        "core.deliver.busy_s": busy("core.deliver"),
        "core.deliveries": rx / k,
        "core.collisions": sum(t.totals["collisions"] for t in traced) / k,
        "core.lost": sum(t.totals["lost"] for t in traced) / k,
        "core.deliver.rx_ratio": ratio(rx, tracer.candidates),
        "core.deliver.us_per_delivery": ratio(tracer.layer("core.deliver")[0], rx) * 1e6,
        "trace.busy_s": busy("trace"),
        "stop.busy_s": busy("stop"),
        "stop.calls": calls("stop"),
        "verify.busy_s": busy("verify"),
        "tracing.overhead_frac": statistics.median(t.wall_s / p.wall_s for p, t in pairs) - 1.0,
        "tracing.coverage_frac": tracer.covered() / traced_wall,
    }


def result_line(m: Measurement, values: dict[str, float], declared: list[dict[str, Any]]) -> dict[str, Any]:
    """The result line: every declared metric with its unit."""
    missing = [d["name"] for d in declared if d["name"] not in values]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared if d["name"] in values}
    failed = len(m.failures)
    return {
        "correct": failed == 0 and not missing,
        "attempted": m.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def single(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    """Measure one workload in this process."""
    w = WORKLOADS[args.workload]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    m = measure(w, args.seed, seconds, traced=bool(args.trace), pins=[] if args.repin else load_pins(w.name, args.seed))
    if args.trace:
        values, declared = per_layer(m), spec["per_layer"]
        if args.spans:
            assert m.tracer is not None
            m.tracer.dump_spans(args.spans, m.origin)
    else:
        values, declared = end_to_end(m), spec["end_to_end"]
    for failure in m.failures:
        print(f"# {w.name} FAILED {failure}", file=sys.stderr)
    extra = [] if args.trace else SUITE_METRICS
    for d in declared + extra:
        if d["name"] in values:
            print(f"{w.name} {d['name']} = {values[d['name']]:.6g} {d['unit']}")
    outputs = m.outputs()
    print("outputs: " + json.dumps(outputs, sort_keys=True))
    print("suite: " + json.dumps({d["name"]: values[d["name"]] for d in extra if d["name"] in values}))
    line = result_line(m, values, declared)
    if args.repin and line["correct"]:
        write_pins(w.name, [r for r in m.runs[:MIN_RUNS] if r is not None])
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def host_info() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _child(
    name: str, seed: int, seconds: float, trace: int, repin: bool
) -> tuple[dict[str, Any] | None, dict[str, Any], dict[str, float]]:
    """Run one workload in a fresh process; return its result line, its
    outputs and its suite-only metric values."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if repin:
        cmd.append("--repin")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.splitlines()
    found: dict[str, dict[str, Any]] = {"outputs": {}, "suite": {}}
    for text in lines:
        key, _, rest = text.partition(": ")
        if key in found:
            found[key] = json.loads(rest)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr)
    return result, found["outputs"], found["suite"]


def suite(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    """All workloads, round-robin in fresh processes, then traced passes."""
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    units = {d["name"]: d["unit"] for d in spec["end_to_end"] + SUITE_METRICS} | SUITE_ONLY
    samples: dict[str, dict[str, list[float]]] = {w: {m: [] for m in units} for w in WORKLOADS}
    seen: dict[str, list[dict[str, Any]]] = {w: [] for w in WORKLOADS}
    counts = {w: [0, 0] for w in WORKLOADS}  # attempted, failed
    for rnd in range(ROUNDS):
        for name in WORKLOADS:
            result, outputs, extra = _child(name, args.seed, seconds, 0, args.repin and rnd == 0)
            seen[name].append(outputs)
            if result is None:
                counts[name][0] += 1
                counts[name][1] += 1
                continue
            counts[name][0] += result["attempted"]
            counts[name][1] += result["failed"]
            for metric, v in result["metrics"].items():
                samples[name][metric].append(v["value"])
            for metric, value in extra.items():
                samples[name][metric].append(value)
            samples[name]["sim_slots"].append(outputs.get("sim_slots", 0))
            samples[name]["colors_max"].append(outputs.get("colors_max", 0))
    layers: dict[str, dict[str, Any]] = {}
    for name in WORKLOADS:
        # As long as the untraced rounds together, so the overhead estimate
        # (a median over inputs) rests on several inputs, not two or three.
        result, outputs, _ = _child(name, args.seed, seconds * ROUNDS, 1, False)
        layers[name] = result["metrics"] if result else {}
        if result is None or not result["correct"] or outputs.get("digest") != seen[name][0].get("digest"):
            counts[name][1] += 1
            print(f"# {name}: traced pass failed or changed the outputs", file=sys.stderr)

    record: dict[str, Any] = {"seed": args.seed, "seconds": seconds, "host": host_info(), "workloads": {}}
    print(f"# seed {args.seed}, {ROUNDS} rounds of {seconds} s per workload; "
          f"{ROUNDS} samples per metric: median, min, max only (no tail percentile)")
    attempted = failed = 0
    for name in WORKLOADS:
        att, fail = counts[name]
        if len({o.get("digest") for o in seen[name]}) > 1:
            fail += 1
            print(f"# {name}: outputs differ between rounds", file=sys.stderr)
        attempted, failed = attempted + att, failed + fail
        samples[name]["failed_frac"] = [fail / max(1, att)]
        e2e = {}
        for metric, unit in units.items():
            vals = samples[name][metric]
            if not vals:
                continue
            med = statistics.median(vals)
            e2e[metric] = {"unit": unit, "median": med, "min": min(vals), "max": max(vals), "n": len(vals),
                           "spread": (max(vals) - min(vals)) / med if med else 0.0, "samples": vals}
            print(f"{name} {metric} = {med:.6g} {unit} [min {min(vals):.6g}, max {max(vals):.6g}, n={len(vals)}]")
        for metric, v in layers[name].items():
            print(f"{name} {metric} = {v['value']:.6g} {v['unit']}")
        outputs = seen[name][0]
        print(f"{name} digest = {outputs.get('digest')} (first {MIN_RUNS} runs)")
        record["workloads"][name] = {
            "attempted": att, "failed": fail, "end_to_end": e2e,
            "per_layer": {k: {"unit": v["unit"], "value": v["value"]} for k, v in layers[name].items()},
            "outputs": outputs,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
    metrics = {f"{w}.{m}": {"value": v["median"], "unit": v["unit"]}
               for w, r in record["workloads"].items() for m, v in r["end_to_end"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="bench.run", description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), help="measure one workload in this process")
    p.add_argument("--seed", type=int, required=True, help="input seed (0: development, 1: held out)")
    p.add_argument("--seconds", type=float, default=None, help="run length (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced pass, per-layer metrics")
    p.add_argument("--out", help="suite: write every metric and output as JSON")
    p.add_argument("--spans", help="with --trace 1: write the span dump (JSON lines)")
    p.add_argument("--repin", action="store_true", help="with --seed 0: rewrite pins.json")
    args = p.parse_args(argv)
    if args.repin and args.seed != PIN_SEED:
        p.error(f"--repin needs --seed {PIN_SEED}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = (ROOT / "src" / "repro").resolve()
    if Path(repro.__file__).resolve().parent != src:
        sys.exit(f"bench: repro must be imported from {src}, got {repro.__file__}")
    spec = load_spec()
    return single(args, spec) if args.workload else suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
