"""Deployment serialization: save and reload network topologies.

Experiments that take long to generate (large kappas to measure) or
deployments received from external tools need round-tripping.  The
format is a single JSON document: node count, edge list, optional
positions, kind, and metadata — human-inspectable and dependency-free.
"""

from __future__ import annotations

import json
import pathlib

import networkx as nx
import numpy as np

from repro.graphs.deployment import Deployment

__all__ = ["deployment_to_json", "deployment_from_json", "save_deployment", "load_deployment"]


def deployment_to_json(dep: Deployment) -> str:
    """Serialize a deployment (graph + geometry + metadata) to JSON."""

    def clean_meta(value):
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (np.floating,)):
            return float(value)
        if isinstance(value, (list, tuple)):
            return [clean_meta(v) for v in value]
        if isinstance(value, dict):
            return {str(k): clean_meta(v) for k, v in value.items()}
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        return repr(value)  # last resort: representation, not data

    doc = {
        "format": "repro-deployment-v1",
        "n": dep.n,
        "edges": np.column_stack(dep.edge_arrays()).tolist(),
        "positions": None
        if dep.positions is None
        else [[float(x) for x in row] for row in dep.positions],
        "kind": dep.kind,
        "meta": clean_meta(dep.meta),
    }
    return json.dumps(doc, indent=1)


def deployment_from_json(text: str) -> Deployment:
    """Inverse of :func:`deployment_to_json`."""
    doc = json.loads(text)
    if doc.get("format") != "repro-deployment-v1":
        raise ValueError(f"unknown deployment format {doc.get('format')!r}")
    g = nx.Graph()
    g.add_nodes_from(range(int(doc["n"])))
    g.add_edges_from((int(u), int(v)) for u, v in doc["edges"])
    positions = None if doc["positions"] is None else np.asarray(doc["positions"])
    return Deployment(
        graph=g,
        positions=positions,
        kind=doc.get("kind", "graph"),
        meta=dict(doc.get("meta", {})),
    )


def save_deployment(dep: Deployment, path: str | pathlib.Path) -> pathlib.Path:
    """Write the deployment's JSON to ``path`` (creating directories)."""
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(deployment_to_json(dep) + "\n")
    return p


def load_deployment(path: str | pathlib.Path) -> Deployment:
    """Read a deployment previously written by :func:`save_deployment`."""
    return deployment_from_json(pathlib.Path(path).read_text())
