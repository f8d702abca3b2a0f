"""Unit tests for RSSI traces and the synthetic GreenOrbs generator."""

import hashlib
import inspect
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.network.node import distance
from repro.network.topologies import grid_neighbor_pairs
from repro.traces import greenorbs
from repro.traces.greenorbs import (
    _FILTER_MARGIN_DB,
    GreenOrbsConfig,
    _cluster_positions,
    _GaussDraws,
    _mean_rssi,
    gauss_bulk,
    generate_greenorbs_trace,
    random_bulk,
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

    @staticmethod
    def _assert_means_follow_record_order(receivers, senders):
        # Float addition does not associate: the mean must be the running
        # sum in record order, as a per-record dict accumulation gives it.
        rng = random.Random(4)
        rows = [
            (rng.choice(receivers), rng.choice(senders), rng.uniform(-95.0, -40.0) * 10 ** rng.randrange(-3, 4))
            for __ in range(3000)
        ]
        totals, counts = {}, {}
        for receiver, sender, rssi in rows:
            totals[(receiver, sender)] = totals.get((receiver, sender), 0.0) + rssi
            counts[(receiver, sender)] = counts.get((receiver, sender), 0) + 1
        expected = {key: totals[key] / counts[key] for key in totals}
        directed = make_trace(rows).directed_averages()
        assert list(directed.items()) == list(expected.items())

    def test_directed_sums_follow_record_order(self):
        self._assert_means_follow_record_order(range(5), range(5))

    def test_links_group_for_any_id_ranges(self):
        # The records are grouped by one packed (receiver, sender) key;
        # negative ids and unequal id ranges must not merge two links.
        self._assert_means_follow_record_order(range(-7, 3), range(-3, 40))
        self._assert_means_follow_record_order(range(-3, 40), range(-7, 3))

    def test_columns_and_records_agree(self):
        rows = [(1, 2, -60.0), (2, 1, -70.5), (1, 3, -80.25)]
        trace = make_trace(rows[:1])
        trace.extend_columns([2, 1], [1, 3], [-70.5, -80.25])
        assert len(trace) == 3
        assert trace.records == [RssiRecord(*r) for r in rows]
        assert trace.directed_averages()[(1, 3)] == -80.25

    def test_extend_invalidates_averages(self):
        trace = make_trace([(1, 2, -60.0), (2, 1, -60.0)])
        assert trace.edge_rssi_values() == [-60.0]
        trace.extend([RssiRecord(1, 2, -80.0)])
        assert trace.edge_rssi_values() == [-65.0]

    def test_empty_trace(self):
        trace = RssiTrace()
        assert len(trace) == 0 and trace.records == []
        assert trace.directed_averages() == {}
        assert len(graph_from_trace(trace, -70.0)) == 0

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


class TestBulkDraws:
    """The bulk draws reproduce the scalar rng calls bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
    def test_random_bulk_matches_random(self, n):
        bulk, scalar = random.Random(11), random.Random(11)
        values = random_bulk(bulk, n).tolist()
        assert values == [scalar.random() for __ in range(n)]
        assert bulk.getstate() == scalar.getstate()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 1000])
    @pytest.mark.parametrize("carry", [False, True])
    def test_gauss_bulk_matches_gauss(self, n, carry):
        bulk, scalar = random.Random(23), random.Random(23)
        if carry:
            # One scalar draw leaves the Box-Muller sine term pending.
            bulk.gauss()
            scalar.gauss()
            assert bulk.gauss_next is not None
        values = gauss_bulk(bulk, n, 5.0).tolist()
        assert values == [scalar.gauss(0.0, 5.0) for __ in range(n)]
        assert bulk.getstate() == scalar.getstate()

    def test_gauss_bulk_chains_like_gauss(self):
        bulk, scalar = random.Random(5), random.Random(5)
        for n in (3, 4, 1, 0, 5, 2):
            assert gauss_bulk(bulk, n, 2.5).tolist() == [
                scalar.gauss(0.0, 2.5) for __ in range(n)
            ]
        assert bulk.getstate() == scalar.getstate()

    @pytest.mark.parametrize("carry", [False, True])
    def test_exact_draws_match_gauss_at_any_index(self, carry):
        bulk, scalar = random.Random(31), random.Random(31)
        if carry:
            bulk.gauss()
            scalar.gauss()
        draws = _GaussDraws(bulk, 101)
        expected = [scalar.gauss() for __ in range(101)]
        picks = [0, 3, 4, 50, 97, 99]
        fresh = [draw - draws.start for draw in picks if draw >= draws.start]
        values = draws.exact(fresh).tolist()
        assert values == [expected[draws.start + index] for index in fresh]
        assert draws.carry == (expected[0] if carry else None)
        assert bulk.getstate() == scalar.getstate()

    def test_gauss_bulk_scales_each_draw_by_its_sigma(self):
        import numpy as np

        sigmas = [2.5, 5.0, 5.0, 2.5, 5.0, 0.0, 5.0]
        bulk, scalar = random.Random(9), random.Random(9)
        values = gauss_bulk(bulk, len(sigmas), np.array(sigmas)).tolist()
        assert values == [scalar.gauss(0.0, sigma) for sigma in sigmas]
        assert bulk.getstate() == scalar.getstate()

    def test_transcendentals_stay_libm(self):
        # NumPy's log/cos/sin may differ from libm in the last bit.
        for exact in (_GaussDraws.__init__, _GaussDraws.exact, gauss_bulk):
            source = inspect.getsource(exact)
            for name in ("log", "cos", "sin", "exp"):
                assert f"np.{name}" not in source


def scalar_records(config, seed, place=_cluster_positions):
    """The generator's records drawn one ``rng.gauss`` call at a time."""
    rng = random.Random(seed)
    positions = place(config, rng)
    nodes = sorted(positions)
    in_range = {v: [] for v in nodes}
    for u, v in grid_neighbor_pairs(positions, config.max_range):
        in_range[u].append(v)
        in_range[v].append(u)
    shadow = {}
    records = []
    for __ in range(config.epochs):
        for receiver in nodes:
            heard = []
            for sender in in_range[receiver]:
                key = (min(receiver, sender), max(receiver, sender))
                if key not in shadow:
                    shadow[key] = rng.gauss(0.0, config.pair_shadowing_sigma_db)
                d = distance(positions[receiver], positions[sender])
                base = _mean_rssi(config, d) + shadow[key]
                heard.append((base + rng.gauss(0.0, config.fading_sigma_db), sender))
            heard.sort(reverse=True)
            records.extend(
                (receiver, sender, rssi)
                for rssi, sender in heard[: config.records_per_packet]
            )
    return records


def _placement_leaving_a_pending_term(config, rng):
    """The forest placement, then one odd gaussian draw.

    The placement itself always draws an even number of gaussians; this
    leaves a Box–Muller sine term pending when epoch 1 starts.
    """
    positions = _cluster_positions(config, rng)
    rng.gauss()
    assert rng.gauss_next is not None
    return positions


class TestGeneratorMatchesScalarDraws:
    @pytest.mark.parametrize(
        "config, seed",
        [
            (GreenOrbsConfig(node_count=50, clusters=4, epochs=4), 3),
            (GreenOrbsConfig(node_count=50, clusters=4, epochs=1), 3),
            (GreenOrbsConfig(node_count=70, clusters=5, epochs=3, records_per_packet=25), 8),
            # Co-located clusters with no shadowing or fading: every
            # packet is full of equal RSSI values, ordered by sender.
            (
                GreenOrbsConfig(
                    node_count=40,
                    clusters=4,
                    cluster_sigma=0.0,
                    pair_shadowing_sigma_db=0.0,
                    fading_sigma_db=0.0,
                    epochs=3,
                ),
                1,
            ),
            # A Box–Muller sine term is pending when epoch 1 starts.
            (GreenOrbsConfig(node_count=90, clusters=5, epochs=4), "pending"),
        ],
    )
    def test_records_equal_scalar_reference(self, config, seed, monkeypatch):
        place = _cluster_positions
        if seed == "pending":
            place, seed = _placement_leaving_a_pending_term, 6
            monkeypatch.setattr(greenorbs, "_cluster_positions", place)
        trace = generate_greenorbs_trace(config, seed=seed)
        records = [(r.receiver, r.sender, r.rssi_dbm) for r in trace.trace.records]
        assert records == scalar_records(config, seed, place)


def _perturbed_approximation(monkeypatch, offset_db, fading):
    """Shift every fresh approximate draw by ``±offset_db`` of RSSI.

    The signs come from a fixed stream.  The pending term is an exact
    value, not an approximation, so it is left alone.
    """
    import numpy as np

    approximate = _GaussDraws.approximate
    signs = np.random.default_rng(0)

    def shifted(self):
        z = approximate(self)
        sign = signs.choice([-1.0, 1.0], size=self.fresh)
        z[self.start :] += sign * offset_db / fading
        return z

    monkeypatch.setattr(_GaussDraws, "approximate", shifted)


class TestCandidateFilter:
    """Epochs 2..E evaluate libm only for links that can reach a packet."""

    CONFIG = GreenOrbsConfig(node_count=120, epochs=7)
    # Co-located clusters of 15 with no shadowing and 2**-40 dB fading:
    # each packet's 10 records come from 14 links whose RSSI ties to
    # within 1e-11 dB, so shifted approximations reorder the packet
    # unless the margin keeps every contender.
    NEAR_TIES = GreenOrbsConfig(
        node_count=60,
        clusters=4,
        cluster_sigma=0.0,
        pair_shadowing_sigma_db=0.0,
        fading_sigma_db=2.0**-40,
        epochs=5,
    )

    @staticmethod
    def columns(config):
        trace = generate_greenorbs_trace(config, seed=2)
        return [column.tobytes() for column in trace.trace.columns()]

    @pytest.mark.parametrize("config", [CONFIG, NEAR_TIES], ids=["default", "near_ties"])
    def test_records_survive_errors_up_to_the_guard(self, monkeypatch, config):
        clean = self.columns(config)
        # A hair inside margin/4, so float rounding cannot tip it over.
        _perturbed_approximation(
            monkeypatch, _FILTER_MARGIN_DB / 4 * (1 - 1e-6), config.fading_sigma_db
        )
        assert self.columns(config) == clean

    @pytest.mark.parametrize("factor", [0.5, 1.0, 1e6])
    def test_errors_beyond_the_guard_raise(self, monkeypatch, factor):
        _perturbed_approximation(
            monkeypatch, _FILTER_MARGIN_DB * factor, self.CONFIG.fading_sigma_db
        )
        with pytest.raises(ArithmeticError, match="candidate filter"):
            generate_greenorbs_trace(self.CONFIG, seed=2)

    def test_libm_runs_for_a_minority_of_links(self, monkeypatch):
        config = GreenOrbsConfig(epochs=3)
        positions = _cluster_positions(config, random.Random(1))
        links = 2 * len(grid_neighbor_pairs(positions, config.max_range))
        exact = _GaussDraws.exact
        evaluated = []

        def counting(self, fresh):
            if len(fresh) > 1:  # not a pending term left behind
                evaluated.append(len(fresh))
            return exact(self, fresh)

        monkeypatch.setattr(_GaussDraws, "exact", counting)
        generate_greenorbs_trace(config, seed=1)
        # Epoch 1 evaluates all its draws (one per link, one per pair);
        # each later epoch only the links that can reach a packet.
        first, *later = evaluated
        assert first >= links and len(later) == 2
        assert all(n < 0.2 * links for n in later)


_DISPATCH_OFF_DIGESTS = """
import hashlib
import numpy._core._multiarray_umath as umath
from repro.traces.greenorbs import GreenOrbsConfig, generate_greenorbs_trace
assert not any(umath.__cpu_features__[t] for t in umath.__cpu_dispatch__)
for nodes, epochs, seed in ((60, 5, 1), (120, 7, 2)):
    config = GreenOrbsConfig(node_count=nodes, epochs=epochs)
    trace = generate_greenorbs_trace(config, seed=seed)
    digest = hashlib.sha256()
    for r in trace.trace.records:
        digest.update(repr((r.receiver, r.sender, r.rssi_dbm)).encode())
    print(digest.hexdigest())
"""


def test_records_are_pinned_with_simd_dispatch_off():
    # NumPy picks its log/cos/sin kernels by CPU feature at import; with
    # every dispatch target disabled the filter runs on the baseline
    # kernels and must still give the pinned records.
    from numpy._core._multiarray_umath import __cpu_dispatch__

    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(__cpu_dispatch__)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", _DISPATCH_OFF_DIGESTS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    # The digests of the two pinned-stream tests below.
    assert run.stdout.split() == [
        "d031a7c37b91a9f8fd24a5004ec401dfb74feecaecb6df3b6931620b25172d4a",
        "2986d6bd71d72314bcbb3743422e55c616a07a13177541ab00fa4a8b8c95de18",
    ]


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

    def test_record_stream_is_pinned_across_a_gauss_carry(self):
        # 2221 in-range pairs: epoch 1 draws an odd number of gaussians
        # (one shadowing per pair, one fading per direction), so every
        # later epoch starts and ends with a pending Box-Muller term.
        # Digest recorded with the all-scalar generator.
        trace = generate_greenorbs_trace(
            GreenOrbsConfig(node_count=120, epochs=7), seed=2
        )
        digest = hashlib.sha256()
        for r in trace.trace.records:
            digest.update(repr((r.receiver, r.sender, r.rssi_dbm)).encode())
        assert len(trace.trace) == 8400
        assert digest.hexdigest() == (
            "2986d6bd71d72314bcbb3743422e55c616a07a13177541ab00fa4a8b8c95de18"
        )
        assert trace.threshold_dbm == -90.39002942628008
        assert len(trace.graph.edge_set()) == 708
