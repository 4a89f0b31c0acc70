"""E18 (extension) — Protocol x PHY arena over one channel core.

The strategy layers make the simulator a *comparison instrument*: any
registered node-logic protocol (:mod:`repro.core.strategy`) runs over
any registered channel model (:mod:`repro.radio.channel`) without
touching a line of engine code.  This experiment crosses the two
registries — the paper's full coloring protocol ``mw05`` and the
promoted leader-election protocol ``mis`` over the collision,
multichannel, and SINR PHYs — on identical deployments, wake schedules,
and seeds, and reports what each pairing pays and produces:

- **colors / leaders** — solution size (colors used by ``mw05``;
  elected leaders for ``mis``, whose one "color" is the MIS itself);
- **slots** — completion time (the protocol's own stop condition:
  all decided for ``mw05``, all covered for ``mis``);
- **tx** — total message cost over the run;
- **ok** — the protocol's own correctness verdict (proper coloring /
  independent + maximal leader set, on completed runs).

The table is *descriptive*, not a benchmark race: the PHYs simulate
different physics (the SINR model delivers through interference the
collision model calls fatal, and drops deliveries the collision model
would grant), so columns compare the protocols' robustness across
channel assumptions rather than implementations against each other.
Every pairing in the grid is backed by a pinned conformance cell
(``ARENA_MATRIX`` for the new pairings; the classic matrices for
``mw05`` x collision / multichannel), so the numbers printed here sit
on byte-identity-verified execution paths.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import check_leader_set, verify_run
from repro.core import Parameters, run_coloring
from repro.experiments.runner import Table
from repro.graphs import random_udg

__all__ = ["run"]

#: the arena grid: every registered protocol x every aligned PHY.
PROTOCOLS = ("mw05", "mis")
PHYS = ("collision", "multichannel", "sinr")


def _verdict(dep, result) -> bool:
    """The protocol's own correctness check for one run."""
    if result.protocol == "mis":
        # Maximality over every non-leader is exactly MIS coverage.
        return result.completed and not check_leader_set(dep, result.colors)
    return verify_run(result).ok


def run(*, quick: bool = True, seeds: int = 3, workers: int | None = None) -> Table:
    """Run the experiment; see the module docstring for the claim.

    ``workers`` is accepted for CLI uniformity; the grid iterates paired
    configurations in-process (each cell reuses the same deployments and
    seeds, so columns are directly comparable).
    """
    del workers
    table = Table("E18 protocol x PHY arena (extension)")
    n, degree = (30, 6.0) if quick else (60, 10.0)
    seed_count = min(seeds, 2) if quick else seeds
    for protocol in PROTOCOLS:
        for phy in PHYS:
            # The multichannel PHY thins the meeting rate by 1/k; scale
            # the constants with the channel count, like the CLI and E17.
            channels = 2 if phy == "multichannel" else 1
            oks, colors, leaders, slots_used, txs = [], [], [], [], []
            for seed in range(seed_count):
                dep = random_udg(
                    n, expected_degree=degree, seed=seed, connected=True
                )
                params = Parameters.for_deployment(dep, scale=float(channels))
                res = run_coloring(
                    dep,
                    params=params,
                    seed=seed + 180,
                    protocol=protocol,
                    phy=phy,
                    channels=channels,
                )
                oks.append(_verdict(dep, res))
                colors.append(res.num_colors)
                leaders.append(int(res.leaders.sum()))
                slots_used.append(res.slots)
                txs.append(res.trace.channel_metrics.totals()["tx"])
            table.add(
                protocol=protocol,
                phy=phy,
                ok=float(np.mean(oks)),
                colors=float(np.mean(colors)),
                leaders=float(np.mean(leaders)),
                slots=float(np.mean(slots_used)),
                tx=float(np.mean(txs)),
            )
    table.note(
        "mis rows use one color (the elected set itself); its slots count "
        "is the coverage time — the A_0/C_0 stage mw05 pays before any "
        "color is assigned, so the mw05-minus-mis gap is the price of "
        "actual coloring"
    )
    table.note(
        "sinr rows simulate physical interference (alpha=3, noise=0.01, "
        "beta=2 over the same geometry): capture turns some collisions "
        "into deliveries and distant traffic raises the noise floor, so "
        "slot counts move in both directions relative to the collision "
        "model — the protocols complete under either physics"
    )
    return table
