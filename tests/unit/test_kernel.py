"""The CSR kernel: compact-adjacency primitives against the dict oracle.

Every primitive the kernel fast-paths (BFS distances, hop balls,
punctured balls, span verdicts) has a dict-based reference
implementation that stays in the tree as the oracle; these tests pin
the kernel to it, including across incremental mutations.
"""

import math
import random

import pytest

from repro.checks.sanitizer import oracle_deletable
from repro.cycles.horton import ShortCycleSpan
from repro.network.graph import NetworkGraph
from repro.topology import LocalTopologyEngine


def _random_graph(seed, n=24, p=0.25):
    rng = random.Random(seed)
    g = NetworkGraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def _dict_ball(graph, v, radius):
    return frozenset(graph.bfs_distances(v, cutoff=radius))


def test_csr_mirror_tracks_mutations():
    g = _random_graph(3)
    csr = g.csr()
    csr.delete_vertex(5)
    csr.delete_edge(*next(iter(g.edges())))
    csr.add_vertex(100)
    csr.add_edge(100, 7)
    assert g.csr() is csr  # still in lock-step, no rebuild
    for v in g.vertices():
        want = g.bfs_distances(v)
        got = csr.bfs_distances(v)
        assert got == want


def test_out_of_band_mutation_triggers_rebuild():
    g = _random_graph(4)
    csr = g.csr()
    g.remove_vertex(2)  # bypasses the mirror
    rebuilt = g.csr()
    assert rebuilt is not csr
    assert 2 not in rebuilt.index


def test_ball_primitives_match_dict_bfs():
    g = _random_graph(5)
    csr = g.csr()
    for v in g.vertices():
        for radius in (1, 2, 3):
            ball = csr.ball_ids(v, radius)
            assert ball == _dict_ball(g, v, radius)
            slots = csr.punctured_ball_slots(v, radius)
            assert csr.index[v] not in slots
            assert frozenset(csr.ids[i] for i in slots) == ball - {v}


@pytest.mark.parametrize("tau", [3, 4, 5, 6, 7, 8])
def test_span_connected_verdict_matches_oracle(tau):
    g = _random_graph(8, n=18, p=0.3)
    csr = g.csr()
    rng = random.Random(2)
    for _ in range(12):
        members_ids = frozenset(v for v in g.vertices() if rng.random() < 0.6)
        if not members_ids:
            continue
        view = g.subgraph_view(members_ids)
        want = view.is_connected() and ShortCycleSpan(view, tau).spans_cycle_space()
        slots = csr.member_slots(members_ids)
        assert csr.span_connected_verdict(slots, tau) == want


def test_engine_kernel_matches_oracle_across_deletions():
    g = _random_graph(9, n=30)
    engine = LocalTopologyEngine(g.copy(), 4)
    rng = random.Random(3)
    for _ in range(6):
        for v in sorted(engine.graph.vertices()):
            assert engine.deletable(v) == oracle_deletable(engine.graph, v, 4)
        alive = sorted(engine.graph.vertices())
        if len(alive) <= 4:
            break
        engine.delete_vertex(rng.choice(alive))


def _unit_disk_graph(seed, n=40, radius=0.3):
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    g = NetworkGraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if math.dist(points[u], points[v]) < radius:
                g.add_edge(u, v)
    return g


def _member_rows(csr, slots):
    members = set(slots)
    return {u: [w for w in csr.adj[u] if w in members] for u in slots}


def _collapse(g, member_ids):
    csr = g.csr()
    slots = csr.member_slots(member_ids)
    core, rows = csr.strong_collapse(slots, _member_rows(csr, slots))
    return csr, slots, core, rows


def test_strong_collapse_core_is_induced_and_undominated():
    fired = 0
    for seed in range(6):
        g = _unit_disk_graph(seed)
        csr = g.csr()
        for v in sorted(g.vertices()):
            slots = csr.punctured_ball_slots(v, 2)
            if not slots:
                continue
            mrows = _member_rows(csr, slots)
            before = {u: list(row) for u, row in mrows.items()}
            core, rows = csr.strong_collapse(slots, mrows)
            assert mrows == before  # the caller's rows are left alone
            assert core == sorted(core) and set(core) <= set(slots)
            fired += len(core) < len(slots)
            members = set(core)
            for u in core:
                assert rows[u] == [w for w in csr.adj[u] if w in members]
            closed = {u: set(rows[u]) | {u} for u in core}
            for u in core:
                assert not any(closed[u] <= closed[w] for w in rows[u])
    assert fired > 0


def test_strong_collapse_complete_graph_to_one_vertex():
    g = NetworkGraph(range(6))
    for u in range(6):
        for v in range(u + 1, 6):
            g.add_edge(u, v)
    csr, _, core, rows = _collapse(g, range(6))
    assert len(core) == 1 and rows == {core[0]: []}
    assert csr.span_connected_verdict(csr.member_slots(range(6)), 3)


@pytest.mark.parametrize("n", [4, 5, 8])
def test_strong_collapse_leaves_long_cycles_untouched(n):
    g = NetworkGraph(range(n))
    for u in range(n):
        g.add_edge(u, (u + 1) % n)
    _, slots, core, rows = _collapse(g, range(n))
    assert core == slots
    assert all(len(row) == 2 for row in rows.values())


def test_strong_collapse_twins_keep_one_survivor():
    # A 5-cycle plus a twin of vertex 0 (same closed neighbourhood).
    g = NetworkGraph(range(6))
    for u in range(5):
        g.add_edge(u, (u + 1) % 5)
    for w in (0, 1, 4):
        g.add_edge(5, w)
    csr, _, core, _ = _collapse(g, range(6))
    survivors = {csr.ids[u] for u in core}
    assert len(survivors) == 5 and len(survivors & {0, 5}) == 1


def test_strong_collapse_keeps_disconnected_ball_disconnected():
    g = NetworkGraph(range(6))
    for a, b in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):
        g.add_edge(a, b)
    csr, slots, core, _ = _collapse(g, range(6))
    assert {csr.ids[u] < 3 for u in core} == {True, False}
    assert not csr.span_connected_verdict(slots, 3)
