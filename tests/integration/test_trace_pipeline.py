"""Synthetic GreenOrbs trace -> network -> DCC pipeline (Figures 5-7)."""

import random

import pytest

from repro.boundary.geometric import outer_boundary_cycle
from repro.core.scheduler import dcc_schedule
from repro.network.node import distance
from repro.traces.greenorbs import GreenOrbsConfig, generate_greenorbs_trace
from repro.traces.rssi import rssi_cdf


@pytest.fixture(scope="module")
def small_trace():
    config = GreenOrbsConfig(
        node_count=120,
        clusters=6,
        epochs=24,
        strip_width=220.0,
        strip_height=80.0,
    )
    return config, generate_greenorbs_trace(config, seed=4)


class TestTracePipeline:
    def test_threshold_near_target_fraction(self, small_trace):
        config, trace = small_trace
        values = trace.trace.edge_rssi_values()
        kept = sum(1 for v in values if v >= trace.threshold_dbm) / len(values)
        assert kept == pytest.approx(config.edge_keep_fraction, abs=0.05)

    def test_cdf_is_monotone_decreasing(self, small_trace):
        __, trace = small_trace
        values = trace.trace.edge_rssi_values()
        thresholds = [-55.0, -65.0, -75.0, -85.0, -95.0]
        fractions = rssi_cdf(values, thresholds)
        assert fractions == sorted(fractions)

    def test_trace_graph_is_not_udg(self, small_trace):
        """Shadowing must produce non-geometric links (the point of Fig 6-7).

        A unit disk graph of radius ``rc`` links two nodes iff they are at
        most ``rc`` apart; the trace graph must break that rule somewhere.
        """
        config, trace = small_trace
        network = trace.as_network(rc=config.max_range, rs=config.max_range)
        graph, positions = network.graph, network.positions
        rc = config.max_range * 0.7
        long_link = any(
            distance(positions[u], positions[v]) > rc + 1e-9 for u, v in graph.edges()
        )
        nodes = sorted(graph.vertices())
        missing_short_link = any(
            distance(positions[u], positions[v]) <= rc - 1e-9 and not graph.has_edge(u, v)
            for i, u in enumerate(nodes)
            for v in nodes[i + 1 :]
        )
        assert long_link or missing_short_link

    def test_dcc_runs_on_trace_and_thins(self, small_trace):
        config, trace = small_trace
        network = trace.as_network(rc=config.max_range, rs=config.max_range)
        cycle = outer_boundary_cycle(network)
        protected = set(cycle)
        left = {}
        for tau in (3, 4):
            result = dcc_schedule(
                network.graph, protected, tau, rng=random.Random(tau)
            )
            left[tau] = result.num_active - len(protected)
        # larger confine size retains at most as many inner nodes
        assert left[4] <= left[3]
