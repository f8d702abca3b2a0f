"""Property-based tests: CSR kernel == dict oracle, parallel == serial.

Two invariants carry the kernel:

* the kernel's compact-adjacency primitives (BFS distances, deletability
  verdicts) agree with the dict-based reference implementations on any
  graph and after any interleaving of mutations, and
* spreading a schedule over region shards and worker processes never
  changes output — schedules at a fixed seed are byte-identical to the
  serial run at any worker count.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import dcc_schedule
from repro.network.graph import NetworkGraph
from repro.topology import LocalTopologyEngine


def _random_graph(seed: int, nodes: int, density: float) -> NetworkGraph:
    rng = random.Random(seed)
    graph = NetworkGraph(range(nodes))
    for u in range(nodes):
        for v in range(u + 1, nodes):
            if rng.random() < density:
                graph.add_edge(u, v)
    return graph


@st.composite
def random_graphs(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    nodes = draw(st.integers(min_value=6, max_value=20))
    density = draw(st.sampled_from((0.15, 0.25, 0.4)))
    return _random_graph(seed, nodes, density)


class TestKernelAgreesWithOracle:
    @given(random_graphs(), st.integers(min_value=3, max_value=6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_deletability_matches_under_mutations(self, graph, tau, data):
        kernel = LocalTopologyEngine(graph.copy(), tau, use_kernel=True)
        oracle = LocalTopologyEngine(graph.copy(), tau, use_kernel=False)
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            vertices = sorted(kernel.graph.vertices())
            if len(vertices) <= 2:
                break
            for v in vertices:
                assert kernel.deletable(v) == oracle.deletable(v)
            # Mutate both sides identically: delete a vertex, an edge,
            # or stitch a fresh edge between survivors.
            action = data.draw(st.sampled_from(("vertex", "edge", "add")))
            if action == "vertex":
                victim = data.draw(st.sampled_from(vertices))
                kernel.delete_vertex(victim)
                oracle.delete_vertex(victim)
            elif action == "edge":
                edges = sorted(kernel.graph.edges())
                if edges:
                    u, v = data.draw(st.sampled_from(edges))
                    kernel.delete_edge(u, v)
                    oracle.delete_edge(u, v)
            else:
                u = data.draw(st.sampled_from(vertices))
                v = data.draw(st.sampled_from(vertices))
                if u != v and not kernel.graph.has_edge(u, v):
                    kernel.add_edge(u, v)
                    oracle.add_edge(u, v)

    @given(random_graphs(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_bfs_distances_match_dict_path(self, graph, data):
        csr = graph.csr()
        cutoff = data.draw(st.one_of(st.none(), st.integers(1, 4)))
        for v in graph.vertices():
            assert csr.bfs_distances(v, cutoff=cutoff) == graph.bfs_distances(
                v, cutoff=cutoff
            )


class TestParallelMatchesSerial:
    @given(
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=3, max_value=5),
    )
    @settings(max_examples=8, deadline=None)
    def test_schedule_identical_at_any_worker_count(self, seed, tau):
        graph = _random_graph(seed, nodes=18, density=0.3)
        protected = set(sorted(graph.vertices())[:3])
        serial = dcc_schedule(
            graph, protected, tau, rng=random.Random(seed), workers=1
        )
        for workers in (1, 2):
            sharded = dcc_schedule(
                graph,
                protected,
                tau,
                rng=random.Random(seed),
                shards=2,
                workers=workers,
            )
            assert sharded.removed == serial.removed
            assert sharded.deletions_per_round == serial.deletions_per_round
