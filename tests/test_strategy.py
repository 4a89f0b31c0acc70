"""Tests for the protocol-strategy layer (:mod:`repro.core.strategy`).

Three concerns:

- **registry plumbing**: name listing, factory errors that name the
  known choices, and the instance/name/None normalization of
  :func:`resolve_protocol`;
- **mw05 default identity**: passing ``protocol="mw05"`` (or an
  explicit :class:`Mw05Protocol` instance) must be byte-identical to
  the historical no-argument path — the strategy extraction moved the
  completion predicate and finalization without changing either;
- **mis semantics**: the promoted MIS protocol stops at coverage,
  elects an independent set, colors leaders ``0`` and leaves everyone
  else deliberately :data:`~repro.core.node.UNDECIDED`.
"""

import numpy as np
import pytest

from repro.core.node import UNDECIDED
from repro.core.strategy import (
    PROTOCOLS,
    ColoringProtocol,
    MisProtocol,
    Mw05Protocol,
    make_protocol,
    protocol_names,
    resolve_protocol,
)
from repro.core.protocol import run_coloring
from repro.core.vector_node import BernoulliColoringNode
from repro.graphs import random_udg


class TestRegistry:
    def test_names_in_registration_order(self):
        assert protocol_names() == ("mw05", "mis")
        assert set(PROTOCOLS) == {"mw05", "mis"}

    def test_make_protocol_builds_fresh_instances(self):
        a, b = make_protocol("mis"), make_protocol("mis")
        assert isinstance(a, MisProtocol) and a is not b

    def test_unknown_name_is_value_error_naming_choices(self):
        with pytest.raises(ValueError, match="mw05.*mis"):
            make_protocol("bogus")
        with pytest.raises(ValueError):
            resolve_protocol("bogus")

    def test_resolve_normalizes_none_name_and_instance(self):
        assert isinstance(resolve_protocol(None), Mw05Protocol)
        assert isinstance(resolve_protocol("mis"), MisProtocol)
        inst = MisProtocol()
        assert resolve_protocol(inst) is inst

    def test_every_protocol_has_metadata_and_node_classes(self):
        for name, cls in PROTOCOLS.items():
            proto = cls()
            assert proto.name == name
            assert proto.description
            assert proto.check_every == 1
            assert isinstance(proto, ColoringProtocol)
            assert proto.node_cls(vectorized=False) is not None
            assert proto.node_cls(vectorized=True) is not None


class TestMw05Default:
    """The strategy extraction must not move the default path."""

    def test_explicit_mw05_matches_default_byte_for_byte(self):
        dep = random_udg(30, expected_degree=6.0, seed=11)
        base = run_coloring(dep, seed=11)
        by_name = run_coloring(dep, seed=11, protocol="mw05")
        by_inst = run_coloring(dep, seed=11, protocol=Mw05Protocol())
        for other in (by_name, by_inst):
            assert np.array_equal(base.colors, other.colors)
            assert np.array_equal(base.tcs, other.tcs)
            assert base.slots == other.slots
            assert base.completed and other.completed
        assert base.protocol == "mw05"

    def test_result_records_protocol_name(self):
        dep = random_udg(20, expected_degree=5.0, seed=3)
        assert run_coloring(dep, seed=3).protocol == "mw05"
        assert run_coloring(dep, seed=3, protocol="mis").protocol == "mis"


class TestMisProtocol:
    def test_elects_independent_covering_leader_set(self):
        dep = random_udg(40, expected_degree=7.0, seed=9)
        res = run_coloring(dep, seed=9, protocol="mis")
        assert res.completed
        leaders = {v for v in range(dep.n) if res.colors[v] == 0}
        assert leaders  # somebody leads
        g = dep.graph
        for v in leaders:  # independence
            assert not any(u in leaders for u in g.neighbors(v))
        for v in range(dep.n):  # coverage (maximality)
            if v not in leaders:
                assert any(u in leaders for u in g.neighbors(v))

    def test_non_leaders_stay_undecided(self):
        dep = random_udg(25, expected_degree=6.0, seed=4)
        res = run_coloring(dep, seed=4, protocol="mis")
        assert set(np.unique(res.colors)) <= {0, UNDECIDED}
        assert (res.tcs == UNDECIDED).all()

    def test_stops_no_later_than_full_coloring(self):
        dep = random_udg(30, expected_degree=6.0, seed=21)
        full = run_coloring(dep, seed=21)
        mis = run_coloring(dep, seed=21, protocol="mis")
        assert mis.completed and full.completed
        assert mis.slots <= full.slots

    def test_runs_on_sinr_and_block_paths(self):
        dep = random_udg(24, expected_degree=6.0, seed=13)
        for kwargs in (
            {"phy": "sinr"},
            {"block": 32},
            {"block": 32, "node_cls": BernoulliColoringNode},
        ):
            res = run_coloring(dep, seed=13, protocol="mis", **kwargs)
            assert res.completed, kwargs
            assert res.protocol == "mis"
