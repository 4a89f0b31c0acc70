"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``color``
    Generate a deployment, run the coloring protocol, print the summary
    and the verification verdict.
``experiment``
    Run one of the E1-E12 experiment modules and print (or CSV-export)
    its table.
``kappa``
    Measure kappa_1/kappa_2 of a generated deployment.
``conform``
    Run the conformance harness: the pinned scenario matrices, optional
    budgeted fuzzing, or a single replayed scenario.  Exits nonzero with
    a slot/node-level divergence report if an engine route ever
    disagrees with its per-slot reference.
``staticcheck``
    Run the determinism-contract static analyzer (rules RPR001-RPR005)
    over ``src/repro`` against the pinned baseline.  Exits nonzero with
    a diff-style ``+ file:line: RULE message`` report on any new
    violation.
``list``
    List the available experiments with their claims.
"""

from __future__ import annotations

import argparse
import importlib
import sys

__all__ = ["main", "EXPERIMENTS"]

#: experiment id -> (module name, one-line claim)
EXPERIMENTS = {
    "e1": ("e1_correctness", "Theorem 2/5: correct + complete colorings"),
    "e2": ("e2_time_scaling", "Theorem 3 / Cor. 2: time ~ Delta log n"),
    "e3": ("e3_colors", "Theorem 5 / Cor. 2: <= kappa2*Delta colors"),
    "e4": ("e4_locality", "Theorem 4: locality of color assignment"),
    "e5": ("e5_kappa", "Sect. 2 + Lemmas 1, 9: kappa bounds per graph model"),
    "e6": ("e6_constants", "Sect. 4 remark: smaller constants suffice"),
    "e7": ("e7_wakeup", "Sect. 2: robustness to wake-up patterns"),
    "e8": ("e8_lemmas", "Lemmas 2-4, 6, 8 + Cor. 1: analysis building blocks"),
    "e9": ("e9_baselines", "Sect. 3: naive reset / frame-based / Luby baselines"),
    "e10": ("e10_tdma", "Sect. 1: interference-free TDMA application"),
    "e11": ("e11_estimates", "(ext.) sensitivity to estimates and channel loss"),
    "e12": ("e12_local_delta", "(ext.) Sect. 6 future work: local-Delta params"),
    "e13": ("e13_unaligned", "(ext.) Sect. 2 claim: non-aligned slots cost a small constant"),
    "e14": ("e14_energy", "(ext.) energy-latency trade-off of initialization"),
    "e15": ("e15_incremental", "(ext.) incremental joins into a colored network"),
    "e16": ("e16_leader_failure", "(ext.) leader-failure blast radius (negative-space)"),
    "e17": ("e17_channels", "(ext.) what the single-channel assumption costs"),
    "e18": ("e18_arena", "(ext.) protocol x PHY arena: colors, time, message cost"),
}

def _nonneg_int(text: str) -> int:
    """argparse type for --workers: a non-negative int (0 = all cores)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 means all cores)")
    return value


_SCHEDULE_CHOICES = (
    "synchronous",
    "uniform_random",
    "sequential",
    "batched",
    "bfs_wave",
    "staggered_neighbors",
    "poisson",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Coloring Unstructured Radio Networks' (SPAA 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    color = sub.add_parser("color", help="run the coloring protocol once")
    color.add_argument("--n", type=int, default=100, help="number of nodes")
    color.add_argument("--degree", type=float, default=12.0, help="expected closed degree")
    color.add_argument("--seed", type=int, default=0, help="master seed")
    color.add_argument(
        "--schedule", choices=_SCHEDULE_CHOICES, default="synchronous",
        help="wake-up pattern",
    )
    color.add_argument("--loss", type=float, default=0.0, help="injected loss probability")
    color.add_argument(
        "--unaligned", action="store_true",
        help="run on the non-aligned-slots simulator (per-node phase "
        "offsets; composes with --loss)",
    )
    color.add_argument(
        "--channels", type=int, default=1, metavar="K",
        help="run on a K-channel PHY (nodes hop channels per slot; "
        "1 = the paper's single-channel model; practical constants are "
        "scaled by K to offset the 1/K meeting rate)",
    )
    color.add_argument(
        "--regime", choices=("practical", "theoretical"), default="practical",
        help="parameter regime",
    )
    color.add_argument(
        "--protocol", default=None, metavar="NAME",
        help="node-logic strategy (default mw05, the paper's protocol; "
        "see --list-protocols)",
    )
    color.add_argument(
        "--phy", default=None, metavar="NAME",
        help="channel model (default: collision, or multichannel when "
        "--channels > 1; see --list-phys)",
    )
    color.add_argument(
        "--list-protocols", action="store_true",
        help="list the registered protocol strategies and exit",
    )
    color.add_argument(
        "--list-phys", action="store_true",
        help="list the registered channel models and exit",
    )
    color.add_argument(
        "--block", type=int, default=1, metavar="B",
        help="block-stepped execution: advance up to B slots per engine "
        "chunk (B > 1 selects the protocol's batched node class so the "
        "vectorized fast path engages; results are identical at any B > 1, "
        "while B = 1 runs the classic node, a different fixed-seed trajectory)",
    )
    color.add_argument(
        "--metrics", action="store_true",
        help="also print per-slot channel metrics (totals, peaks, RNG "
        "draws per stream)",
    )

    exp = sub.add_parser("experiment", help="run an experiment module")
    exp.add_argument("id", choices=sorted(EXPERIMENTS, key=lambda k: int(k[1:])))
    exp.add_argument("--full", action="store_true", help="full (slow) configuration")
    exp.add_argument("--seeds", type=int, default=None, help="seeds per configuration")
    exp.add_argument("--csv", metavar="PATH", default=None, help="also write CSV here")
    exp.add_argument(
        "--workers", type=_nonneg_int, default=None,
        help="seed-sweep worker processes (0 = all cores; default: "
        "REPRO_SWEEP_WORKERS or serial); tables are identical at any "
        "worker count",
    )
    exp.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="write per-run wall-time/slot/tx telemetry JSON here",
    )
    exp.add_argument(
        "--replicas", type=int, default=None, metavar="R",
        help="run R seeded replicas per configuration on one shared "
        "deployment instead of resampling the graph per seed "
        "(experiments that support it: e6, e13)",
    )

    kappa = sub.add_parser("kappa", help="measure kappa_1/kappa_2 of a deployment")
    kappa.add_argument("--n", type=int, default=100)
    kappa.add_argument("--degree", type=float, default=12.0)
    kappa.add_argument("--seed", type=int, default=0)

    conform = sub.add_parser(
        "conform",
        help="conformance: lockstep-compare each engine route with its "
        "per-slot reference",
    )
    conform.add_argument(
        "--quick", action="store_true",
        help="run the fast diagonal of the scenario matrix instead of "
        "the full matrix",
    )
    conform.add_argument(
        "--fuzz", type=int, default=0, metavar="N",
        help="additionally fuzz up to N random scenarios",
    )
    conform.add_argument(
        "--budget", type=float, default=20.0, metavar="SECONDS",
        help="wall-clock budget for --fuzz (default 20s)",
    )
    conform.add_argument(
        "--seed", type=int, default=0,
        help="scenario seed (with --family) or fuzz master seed",
    )
    conform.add_argument(
        "--workers", type=_nonneg_int, default=None,
        help="matrix worker processes (0 = all cores)",
    )
    conform.add_argument(
        "--inject-bug", action="store_true",
        help="run each population's route on a deliberately broken node "
        "class (harness self-test; must exit nonzero with a slot/node "
        "report)",
    )
    conform.add_argument(
        "--metrics", action="store_true",
        help="print the reference's and the route's channel-metric "
        "totals for every cell",
    )
    # Single-scenario replay — exactly the flags a divergence report
    # prints after "replay:".
    conform.add_argument("--family", choices=("udg", "torus", "ubg", "quasi_udg"))
    conform.add_argument("--n", type=int, default=24)
    conform.add_argument("--degree", type=float, default=6.0)
    conform.add_argument(
        "--schedule", choices=("sync", "random", "staggered"), default="sync"
    )
    conform.add_argument("--loss", type=float, default=0.0)
    conform.add_argument("--param-scale", type=float, default=1.0)
    conform.add_argument("--max-slots", type=int, default=None)
    conform.add_argument(
        "--phy", choices=("collision", "multichannel", "sinr", "unaligned"),
        default="collision",
        help="channel model under comparison: the default collision PHY, "
        "a multi-channel or SINR PHY under both sides, or the "
        "unaligned simulator against the aligned engine",
    )
    conform.add_argument(
        "--protocol", choices=("mw05", "mis"), default="mw05",
        help="node-logic strategy under comparison (the lockstep "
        "completion condition generalizes through it)",
    )
    conform.add_argument(
        "--arena", action="store_true",
        help="without --family: run the pinned protocol x PHY "
        "ARENA_MATRIX instead of the full matrix",
    )
    conform.add_argument(
        "--channels", type=int, default=1, metavar="K",
        help="channel count for --phy multichannel",
    )
    conform.add_argument(
        "--block", type=int, default=0, metavar="B",
        help="block size the routes run at (step_block chunks of B "
        "slots) against the per-slot reference (0 = run_coloring's "
        "default, 4096)",
    )

    staticcheck = sub.add_parser(
        "staticcheck",
        help="determinism-contract static analyzer (RPR001-RPR005) with "
        "pinned-baseline ratchet",
    )
    from repro.staticcheck.cli import add_arguments as _staticcheck_arguments

    _staticcheck_arguments(staticcheck)

    sub.add_parser("list", help="list available experiments")
    return parser


def _list_registries(protocols: bool, phys: bool) -> int:
    """The ``--list-protocols`` / ``--list-phys`` listings."""
    from repro.core.strategy import PROTOCOLS
    from repro.radio.channel import phy_names

    if protocols:
        print("protocols:")
        for name, cls in PROTOCOLS.items():
            print(f"  {name:<13} {cls().description}")
    if phys:
        descriptions = {
            "collision": "the paper's collision model (exactly-one-neighbor)",
            "multichannel": "K-channel hopping (only same-channel tx interact)",
            "sinr": "physical interference: per-receiver SINR over geometry",
        }
        print("phys:")
        for name in phy_names():
            print(f"  {name:<13} {descriptions.get(name, '')}")
    return 0


def _mis_verdict(dep, result) -> int:
    """Leader-set verdict for ``--protocol mis`` runs (the coloring
    verifier would flag the deliberately-UNDECIDED non-leaders); on a
    completed run, maximality is coverage: every non-leader must see a
    leader."""
    from repro.analysis import check_leader_set

    problems = check_leader_set(dep, result.colors, require_maximal=result.completed)
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    verdict = "OK" if not problems else "VIOLATIONS FOUND"
    print(f"leader-set verification: {verdict}")
    return 0 if not problems else 1


def _cmd_color(args) -> int:
    from repro.core import Parameters, run_coloring
    from repro.core.strategy import resolve_protocol
    from repro.analysis import verify_run
    from repro.wakeup import ALL_SCHEDULES

    if args.list_protocols or args.list_phys:
        return _list_registries(args.list_protocols, args.list_phys)
    if args.block < 1:
        print("--block must be >= 1", file=sys.stderr)
        return 2
    dep = _deployment(args)
    if dep is None:
        return 2
    print(f"deployment: {dep.describe()}")
    scale_kwargs = {}
    if args.channels > 1 and args.regime == "practical":
        # Hopping thins the meeting rate by 1/k; scale the constants
        # with the channel count so runs stay at the intended operating
        # point (E17 measures exactly this trade).
        scale_kwargs["scale"] = float(args.channels)
    params = Parameters.for_deployment(dep, regime=args.regime, **scale_kwargs)
    wake = ALL_SCHEDULES[args.schedule](dep, seed=args.seed + 1)
    run_kwargs = {}
    try:
        if args.block > 1:
            # Block-stepping pays off on the vectorized fast path, which
            # needs the protocol's batched node class; same protocol logic.
            node_cls = resolve_protocol(args.protocol).node_cls(vectorized=True)
            run_kwargs = {"block": args.block, "node_cls": node_cls}
        result = run_coloring(
            dep,
            params=params,
            wake_slots=wake,
            seed=args.seed + 2,
            loss_prob=args.loss,
            unaligned=args.unaligned,
            channels=args.channels,
            protocol=args.protocol,
            phy=args.phy,
            **run_kwargs,
        )
    except ValueError as exc:
        # Registry misses (unknown --protocol / --phy) and invalid
        # combinations surface as ValueError naming the known choices.
        print(str(exc), file=sys.stderr)
        return 2
    print(f"protocol: {result.protocol}")
    for k, v in result.summary().items():
        print(f"  {k}: {v}")
    if args.metrics:
        print(_render_metrics(result.trace.channel_metrics))
    if result.protocol == "mis":
        return _mis_verdict(dep, result)
    report = verify_run(result)
    print(report.describe())
    return 0 if report.ok else 1


def _render_metrics(metrics) -> str:
    """Channel-metric summary block (totals plus busiest slots)."""
    totals = metrics.totals()
    lines = ["channel metrics:"]
    for name in metrics.FIELDS:
        lines.append(f"  {name:<15} {totals[name]}")
    if len(metrics):
        arrays = metrics.as_arrays()
        tx = arrays["tx"]
        peak = int(tx.argmax())
        lines.append(
            f"  busiest slot    {peak} ({int(tx[peak])} tx, "
            f"{int(arrays['collisions'][peak])} collisions)"
        )
    return "\n".join(lines)


def _cmd_conform(args) -> int:
    from repro.conform import (
        SCENARIO_MATRIX,
        LateStepNode,
        OffByOneCounterNode,
        Scenario,
        arena_matrix,
        block_matrix,
        fuzz,
        phy_matrix,
        quick_matrix,
        run_cells,
        run_matrix,
    )

    if args.fuzz > 0 and args.budget <= 0:
        print(f"--budget must be positive, got {args.budget:g}", file=sys.stderr)
        return 2
    # One broken route class per node population (batched, classic).
    broken = (OffByOneCounterNode, LateStepNode) if args.inject_bug else None

    if args.family is not None:
        # Single-scenario replay (the command a divergence report prints).
        try:
            scenario = Scenario(
                family=args.family,
                n=args.n,
                degree=args.degree,
                schedule=args.schedule,
                loss_prob=args.loss,
                seed=args.seed,
                param_scale=args.param_scale,
                phy=args.phy,
                channels=args.channels,
                block=args.block,
                protocol=args.protocol,
            )
            reports = run_cells(
                scenario, max_slots=args.max_slots, node_classes=broken
            )
        except ValueError as exc:
            # Invalid scenario flags (--n 0, --loss 1.5, --block with
            # --phy unaligned, ...) surface as ValueError naming them.
            print(str(exc), file=sys.stderr)
            return 2
    else:
        if args.arena:
            # The focused pinned matrix for the protocol x PHY arena.
            matrix = arena_matrix()
        elif args.quick:
            matrix = quick_matrix()
        else:
            matrix = (
                SCENARIO_MATRIX
                + phy_matrix()
                + block_matrix()
                + arena_matrix()
            )
        reports = run_matrix(matrix, workers=args.workers, node_classes=broken)

    for report in reports:
        print(report.describe())
        if args.metrics:
            print(
                f"     reference: {report.reference_totals}\n"
                f"     route:     {report.route_totals}"
            )
    ok = all(r.ok for r in reports)

    if args.fuzz > 0 and args.family is None and broken is None:
        result = fuzz(args.seed, budget_s=args.budget, max_scenarios=args.fuzz)
        print(result.describe())
        ok = ok and result.ok

    failed = sum(1 for r in reports if not r.ok)
    print(
        f"conformance: {len(reports) - failed}/{len(reports)} cells conform"
        + ("" if ok else " -- DIVERGENCE")
    )
    return 0 if ok else 1


def _cmd_experiment(args) -> int:
    from repro.experiments.parallel import collect_telemetry

    mod_name, _claim = EXPERIMENTS[args.id]
    mod = importlib.import_module(f"repro.experiments.{mod_name}")
    kwargs = {"quick": not args.full}
    if args.seeds is not None:
        if args.seeds < 1:
            print(f"--seeds must be >= 1, got {args.seeds}", file=sys.stderr)
            return 2
        kwargs["seeds"] = args.seeds
    if args.workers is not None:
        kwargs["workers"] = args.workers
    if args.replicas is not None:
        import inspect

        if "replicas" not in inspect.signature(mod.run).parameters:
            print(
                f"{args.id} does not support --replicas (shared-deployment "
                "sweeps are wired into e6 and e13)",
                file=sys.stderr,
            )
            return 2
        kwargs["replicas"] = args.replicas
    with collect_telemetry() as telemetry:
        table = mod.run(**kwargs)
    print(table.render())
    if telemetry:
        wall = sum(t.wall_s for t in telemetry)
        print(f"# {len(telemetry)} runs, {wall:.2f}s total run wall time")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(table.to_csv())
        print(f"(csv written to {args.csv})")
    if args.telemetry:
        from repro.experiments.io import save_sweep_telemetry

        save_sweep_telemetry(telemetry, args.telemetry)
        print(f"(telemetry written to {args.telemetry})")
    return 0


def _deployment(args):
    """The ``--n``/``--degree``/``--seed`` UDG, or ``None`` after printing
    the one-line reason the flags are invalid."""
    from repro.graphs import random_udg

    try:
        return random_udg(args.n, expected_degree=args.degree, seed=args.seed)
    except ValueError as exc:
        print(f"invalid deployment flags: {exc}", file=sys.stderr)
        return None


def _cmd_kappa(args) -> int:
    from repro.graphs import kappas

    dep = _deployment(args)
    if dep is None:
        return 2
    k1, k2 = kappas(dep)
    print(f"deployment: {dep.describe()}")
    print(f"kappa1={k1} (UDG bound 5), kappa2={k2} (UDG bound 18)")
    return 0


def _cmd_list() -> int:
    for key in sorted(EXPERIMENTS, key=lambda k: int(k[1:])):
        mod, claim = EXPERIMENTS[key]
        print(f"{key:<5} {claim}   [repro.experiments.{mod}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "color":
        return _cmd_color(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "kappa":
        return _cmd_kappa(args)
    if args.command == "conform":
        return _cmd_conform(args)
    if args.command == "staticcheck":
        from repro.staticcheck.cli import run as _staticcheck_run

        return _staticcheck_run(args)
    if args.command == "list":
        return _cmd_list()
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
