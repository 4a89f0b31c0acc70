"""Vectorized Monte-Carlo channel simulation for beacon workloads.

The lemma-validation experiments (E8) need *distributional* quantities —
per-slot reception probabilities between fixed pairs, successful-
transmission rates — over many thousands of slots.  Protocol logic is
irrelevant there: every node just transmits i.i.d. with a fixed
probability (the Lemma 2/3/4 setting, "v is active throughout I").

For that special case the whole simulation collapses into linear
algebra, following the HPC guides' vectorization advice:

- transmissions: one boolean matrix ``T[slots, n]`` from a single RNG
  call;
- per-(listener, slot) transmitting-neighbor counts: the sparse product
  ``T @ A`` with ``A`` the adjacency matrix;
- receptions: ``(counts == 1) & listening``; unique-sender attribution
  via a second product with ID weights (when exactly one neighbor
  transmits, the weighted sum *is* the sender's ID);
- Lemma 4's "sole transmitter in the closed 2-hop neighborhood" via the
  same trick with the closed ``A²`` matrix.

This runs ~two orders of magnitude faster than stepping the
event-driven engine and is differential-tested against it on identical
transmission matrices (``tests/test_radio_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.graphs.deployment import Deployment
from repro._util import spawn_generator

__all__ = [
    "BeaconBatchResult",
    "simulate_beacons",
    "channel_outcomes",
    "multichannel_reception_rates",
]


def _indicator(csr: tuple[np.ndarray, np.ndarray], n: int) -> sparse.csr_matrix:
    """0/1 CSR matrix over a deployment-cached ``(indptr, indices)`` pair
    (the structure every PHY bind shares), not re-flattened per call."""
    indptr, indices = csr
    data = np.ones(len(indices), dtype=np.int64)
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def _adjacency(dep: Deployment) -> sparse.csr_matrix:
    return _indicator(dep.csr, dep.n)


def _closed_two_hop(dep: Deployment) -> sparse.csr_matrix:
    return _indicator(dep.two_hop_csr, dep.n)


@dataclass
class BeaconBatchResult:
    """Aggregates of one batch simulation."""

    slots: int
    tx_count: np.ndarray  #: per-node transmissions
    rx_count: np.ndarray  #: per-node receptions
    collision_count: np.ndarray  #: per-node collided slots
    pair_rx: sparse.csr_matrix  #: [listener, sender] reception counts
    success_count: np.ndarray  #: per-node sole-transmitter-in-N^2 slots

    def reception_rate(self, listener: int, sender: int) -> float:
        """Empirical per-slot probability that ``listener`` received a
        message from ``sender`` (the Lemma 2/3 quantity)."""
        return float(self.pair_rx[listener, sender]) / self.slots

    def success_rate(self, node: int) -> float:
        """Empirical per-slot probability that ``node`` transmitted as the
        sole transmitter of its closed 2-hop neighborhood (the Lemma 4
        sufficient event)."""
        return float(self.success_count[node]) / self.slots


def channel_outcomes(
    dep: Deployment, tx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve the channel for an explicit transmission matrix.

    Parameters
    ----------
    tx:
        Boolean ``(slots, n)``: who transmits when.

    Returns
    -------
    (received, sender, collided):
        ``received[t, u]`` — listener ``u`` decoded a message in slot
        ``t``; ``sender[t, u]`` — its sender id (valid where received);
        ``collided[t, u]`` — two or more transmitting neighbors.
    """
    tx = np.asarray(tx, dtype=bool)
    if tx.ndim != 2 or tx.shape[1] != dep.n:
        raise ValueError(f"tx must be (slots, {dep.n}), got {tx.shape}")
    adj = _adjacency(dep)
    counts = tx.astype(np.int64) @ adj  # [slots, n] transmitting neighbors
    listening = ~tx
    received = (counts == 1) & listening
    collided = (counts >= 2) & listening
    # Unique-sender attribution: weight transmissions by node id.
    ids = np.arange(dep.n, dtype=np.int64)
    weighted = (tx.astype(np.int64) * ids[None, :]) @ adj
    sender = np.where(received, weighted, -1)
    return received, sender, collided


def simulate_beacons(
    dep: Deployment,
    probs: np.ndarray,
    slots: int,
    *,
    seed: int | None = 0,
    chunk: int = 4096,
) -> BeaconBatchResult:
    """Simulate ``slots`` slots of i.i.d. beaconing.

    ``probs`` is the per-node transmission probability.  Work proceeds in
    chunks of slots to bound memory (``chunk * n`` booleans at a time).
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (dep.n,):
        raise ValueError(f"probs must have shape ({dep.n},)")
    if ((probs < 0) | (probs > 1)).any():
        raise ValueError("probs must lie in [0, 1]")
    if slots < 1:
        raise ValueError("slots must be >= 1")
    rng = spawn_generator(seed, 0xBA7C4)
    adj2 = _closed_two_hop(dep)

    n = dep.n
    tx_count = np.zeros(n, dtype=np.int64)
    rx_count = np.zeros(n, dtype=np.int64)
    collision_count = np.zeros(n, dtype=np.int64)
    success_count = np.zeros(n, dtype=np.int64)
    pair = sparse.csr_matrix((n, n), dtype=np.int64)

    done = 0
    while done < slots:
        m = min(chunk, slots - done)
        tx = rng.random((m, n)) < probs[None, :]
        tx_count += tx.sum(axis=0)
        received, sender, collided = channel_outcomes(dep, tx)
        rx_count += received.sum(axis=0)
        collision_count += collided.sum(axis=0)
        # Lemma 4 event: transmitting and sole transmitter in closed N^2.
        counts2 = tx.astype(np.int64) @ adj2
        success_count += (tx & (counts2 == 1)).sum(axis=0)
        # Pairwise attribution: one COO per chunk straight from the
        # (listener, sender) index arrays — duplicate entries sum on CSR
        # conversion, so no Python loop over receptions is needed.
        t_idx, u_idx = np.nonzero(received)
        if u_idx.size:
            s_idx = sender[t_idx, u_idx]
            pair = pair + sparse.coo_matrix(
                (
                    np.ones(u_idx.size, dtype=np.int64),
                    (u_idx.astype(np.int64), s_idx.astype(np.int64)),
                ),
                shape=(n, n),
            ).tocsr()
        done += m

    return BeaconBatchResult(
        slots=slots,
        tx_count=tx_count,
        rx_count=rx_count,
        collision_count=collision_count,
        pair_rx=pair,
        success_count=success_count,
    )


def multichannel_reception_rates(
    dep: Deployment,
    probs: np.ndarray,
    slots: int,
    channels: int,
    *,
    seed: int | None = 0,
    chunk: int = 4096,
) -> dict[str, float]:
    """Beacon reception rates with ``channels`` independent channels.

    Sect. 2 notes that, unlike the earlier unstructured-model papers
    [13, 14], this paper assumes a *single* channel.  This Monte Carlo
    quantifies what that assumption costs: transmitters and listeners
    hop to a uniformly random channel each slot; a listener receives iff
    exactly one of its transmitting neighbors is on *its* channel.
    Collisions thin out roughly linearly in the channel count while the
    sender-listener channel-match probability drops as ``1/channels`` —
    the net effect on delivery is what the E17 bench reports.

    This is the *closed-form batch estimate* of the multi-channel model:
    independent beacons at fixed probabilities, no protocol feedback.
    Its steppable counterpart is
    :class:`repro.radio.channel.MultiChannelPhy`, which plugs the same
    per-slot hopping semantics into the full simulator so entire
    protocols run on it (``run_coloring(..., channels=k)``); E17 reports
    both views side by side.

    Returns mean per-node rates: ``rx`` (receptions/slot), ``collision``
    (collided slots/slot), and ``rx_per_tx`` (deliveries per
    transmission).
    """
    if channels < 1:
        raise ValueError("channels must be >= 1")
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (dep.n,):
        raise ValueError(f"probs must have shape ({dep.n},)")
    if slots < 1:
        raise ValueError("slots must be >= 1")
    rng = spawn_generator(seed, 0xC4A7)
    adj = _adjacency(dep)
    n = dep.n
    rx_total = 0
    coll_total = 0
    tx_total = 0
    done = 0
    while done < slots:
        m = min(chunk, slots - done)
        tx = rng.random((m, n)) < probs[None, :]
        chan = rng.integers(0, channels, size=(m, n))
        tx_total += int(tx.sum())
        listening = ~tx
        # Per channel: transmitting indicator restricted to that channel.
        counts_on_my_channel = np.zeros((m, n), dtype=np.int64)
        for c in range(channels):
            tx_c = (tx & (chan == c)).astype(np.int64)
            neigh_counts_c = tx_c @ adj  # transmitting neighbors on channel c
            counts_on_my_channel += np.where(chan == c, neigh_counts_c, 0)
        rx_total += int(((counts_on_my_channel == 1) & listening).sum())
        coll_total += int(((counts_on_my_channel >= 2) & listening).sum())
        done += m
    return {
        "rx": rx_total / (slots * n),
        "collision": coll_total / (slots * n),
        "rx_per_tx": rx_total / max(1, tx_total),
    }
