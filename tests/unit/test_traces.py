"""Unit tests for RSSI traces and the synthetic GreenOrbs generator."""

import hashlib

import pytest

from repro.traces.greenorbs import (
    GreenOrbsConfig,
    generate_greenorbs_trace,
)
from repro.traces.rssi import (
    RssiRecord,
    RssiTrace,
    graph_from_trace,
    rssi_cdf,
    threshold_for_fraction,
)


def make_trace(records):
    trace = RssiTrace()
    trace.extend(RssiRecord(*r) for r in records)
    return trace


class TestRssiAggregation:
    def test_directed_averages(self):
        trace = make_trace([(1, 2, -60.0), (1, 2, -70.0), (2, 1, -65.0)])
        directed = trace.directed_averages()
        assert directed[(1, 2)] == pytest.approx(-65.0)
        assert directed[(2, 1)] == pytest.approx(-65.0)

    def test_undirected_requires_both_directions(self):
        trace = make_trace([(1, 2, -60.0), (3, 2, -50.0)])
        assert trace.undirected_averages() == {}

    def test_undirected_pools_directions(self):
        trace = make_trace([(1, 2, -60.0), (2, 1, -70.0)])
        assert trace.undirected_averages()[(1, 2)] == pytest.approx(-65.0)

    def test_edge_rssi_values_sorted(self):
        trace = make_trace(
            [(1, 2, -60.0), (2, 1, -60.0), (1, 3, -80.0), (3, 1, -80.0)]
        )
        assert trace.edge_rssi_values() == [-80.0, -60.0]


class TestCdfAndThreshold:
    def test_cdf_fractions(self):
        values = [-90.0, -80.0, -70.0, -60.0]
        fractions = rssi_cdf(values, [-95.0, -75.0, -55.0])
        assert fractions == [1.0, 0.5, 0.0]

    def test_cdf_empty(self):
        assert rssi_cdf([], [-80.0]) == [0.0]

    def test_threshold_for_fraction(self):
        values = [-90.0, -80.0, -70.0, -60.0]
        # keep strongest half -> threshold at -70
        assert threshold_for_fraction(values, 0.5) == pytest.approx(-70.0)
        assert threshold_for_fraction(values, 1.0) == pytest.approx(-90.0)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            threshold_for_fraction([1.0], 0.0)
        with pytest.raises(ValueError):
            threshold_for_fraction([], 0.5)

    def test_graph_from_trace_applies_threshold(self):
        trace = make_trace(
            [(1, 2, -60.0), (2, 1, -60.0), (1, 3, -90.0), (3, 1, -90.0)]
        )
        graph = graph_from_trace(trace, -70.0)
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(1, 3)
        assert 3 in graph  # node exists even if all its links fail


class TestGreenOrbsGenerator:
    @pytest.fixture(scope="class")
    def small_trace(self):
        config = GreenOrbsConfig(
            node_count=80,
            clusters=5,
            epochs=12,
            strip_width=160.0,
            strip_height=60.0,
        )
        return config, generate_greenorbs_trace(config, seed=2)

    def test_node_count(self, small_trace):
        config, trace = small_trace
        assert len(trace.positions) == config.node_count

    def test_positions_inside_strip(self, small_trace):
        config, trace = small_trace
        for p in trace.positions.values():
            assert trace.region.contains(p)

    def test_records_capped_per_packet(self, small_trace):
        config, trace = small_trace
        from collections import Counter

        per_packet_cap = config.records_per_packet * config.epochs
        by_receiver = Counter(r.receiver for r in trace.trace.records)
        assert max(by_receiver.values()) <= per_packet_cap

    def test_threshold_keeps_target_fraction(self, small_trace):
        config, trace = small_trace
        values = trace.trace.edge_rssi_values()
        kept = sum(1 for v in values if v >= trace.threshold_dbm) / len(values)
        assert kept == pytest.approx(config.edge_keep_fraction, abs=0.05)

    def test_graph_has_reasonable_connectivity(self, small_trace):
        __, trace = small_trace
        giant = max(trace.graph.connected_components(), key=len)
        assert len(giant) >= 0.85 * len(trace.graph)

    def test_as_network_classifies_boundary(self, small_trace):
        config, trace = small_trace
        network = trace.as_network(rc=config.max_range, rs=config.max_range)
        assert network.boundary_nodes
        assert network.graph.is_connected()

    def test_determinism(self):
        config = GreenOrbsConfig(node_count=40, clusters=4, epochs=6)
        a = generate_greenorbs_trace(config, seed=5)
        b = generate_greenorbs_trace(config, seed=5)
        assert a.threshold_dbm == b.threshold_dbm
        assert a.graph.edge_set() == b.graph.edge_set()

    def test_seeds_differ(self):
        config = GreenOrbsConfig(node_count=40, clusters=4, epochs=6)
        a = generate_greenorbs_trace(config, seed=5)
        b = generate_greenorbs_trace(config, seed=6)
        assert a.graph.edge_set() != b.graph.edge_set()

    def test_record_stream_is_pinned(self):
        # Pins the rng stream: the static per-link RSSI, the shadowing
        # draws and the fading draws must keep their order and values.
        trace = generate_greenorbs_trace(GreenOrbsConfig(node_count=60, epochs=5), seed=1)
        digest = hashlib.sha256()
        for r in trace.trace.records:
            digest.update(repr((r.receiver, r.sender, r.rssi_dbm)).encode())
        assert len(trace.trace.records) == 2995
        assert digest.hexdigest() == (
            "d031a7c37b91a9f8fd24a5004ec401dfb74feecaecb6df3b6931620b25172d4a"
        )
