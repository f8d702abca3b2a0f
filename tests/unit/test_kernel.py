"""The CSR kernel: compact-adjacency primitives against the dict oracle.

Every primitive the kernel fast-paths (hop balls, punctured balls,
span verdicts, the criterion) has a dict-based reference
implementation that stays in the tree as the oracle; these tests pin
the kernel to it, including across incremental mutations.
"""

import math
import random
from itertools import islice

import networkx as nx
import pytest

from repro.checks.sanitizer import oracle_deletable
from repro.cycles.horton import ShortCycleSpan
from repro.cycles.kernel import CSRGraph
from repro.network.graph import NetworkGraph
from repro.network.topologies import cycle_graph, wheel_graph
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
        for radius in range(5):
            assert csr.ball_ids(v, radius) == _dict_ball(g, v, radius)


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
            slots = csr.ball_slots(v, radius)
            assert slots[0] == csr.index[v] and csr.index[v] not in slots[1:]
            assert frozenset(csr.ids[i] for i in slots[1:]) == ball - {v}


@pytest.mark.parametrize(
    "edges",
    [
        [(1, 2), (2, 3), (3, 1)],
        [(0, 1), (1, 2), (2, 0)],
        [(0, 2), (2, 4), (4, 0)],
        [(0, 6)],
        [(0, 1)],
        [(0, 1), (1, 2)],
    ],
)
def test_criterion_rejects_what_is_not_an_even_subgraph(edges):
    # wheel_graph(6): rim 0..5, hub 6.  Each set has a non-edge or an
    # odd-degree vertex, so it is not in the cycle space at all.
    g = wheel_graph(6)
    oracle = ShortCycleSpan(g, 3, use_csr=False).contains_edges(edges)
    assert oracle is False
    assert g.csr().short_cycles_contain(edges, 3) == oracle


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


def _collapse(g, member_ids):
    csr = g.csr()
    slots = csr.member_slots(member_ids)
    core, rows = csr.strong_collapse(slots)
    return csr, slots, core, rows


def _wheel(rim):
    """A hub 0 joined to every vertex of the cycle 1..rim."""
    g = NetworkGraph(range(rim + 1))
    for v in range(1, rim + 1):
        g.add_edge(0, v)
        g.add_edge(v, v % rim + 1)
    return g


def _assert_scratch_clean(csr):
    assert not any(csr._bit) and not any(csr._closed)


def test_strong_collapse_core_is_induced_and_undominated():
    fired = 0
    for seed in range(6):
        g = _unit_disk_graph(seed)
        csr = g.csr()
        for v in sorted(g.vertices()):
            slots = csr.ball_slots(v, 2)[1:]
            if not slots:
                continue
            before = [list(row) for row in csr.adj]
            core, rows = csr.strong_collapse(slots)
            assert csr.adj == before  # the mirror's rows are left alone
            _assert_scratch_clean(csr)
            assert core == sorted(core) and set(core) <= set(slots)
            fired += len(core) < len(slots)
            members = set(core)
            for u in core:
                assert rows[u] == [w for w in csr.adj[u] if w in members]
            closed = {u: set(rows[u]) | {u} for u in core}
            for u in core:
                assert not any(closed[u] <= closed[w] for w in rows[u])
    assert fired > 0


def test_strong_collapse_core_size_ignores_member_order():
    # Strong-collapse cores are unique up to isomorphism, so the pop
    # order may pick different survivors but never a different count.
    for seed in range(6):
        g = _unit_disk_graph(seed)
        csr = g.csr()
        for v in sorted(g.vertices()):
            slots = csr.ball_slots(v, 2)[1:]
            if not slots:
                continue
            forward, _ = csr.strong_collapse(slots)
            backward, _ = csr.strong_collapse(slots[::-1])
            assert len(forward) == len(backward)


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
    csr, slots, core, rows = _collapse(g, range(n))
    assert core == slots
    assert all(len(row) == 2 for row in rows.values())
    assert rows == {u: csr.adj[u] for u in slots}


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


def test_strong_collapse_ignores_non_members():
    # The hub dominates the whole rim, but only the rim is the member
    # set: it is a bare 6-cycle, and no vertex of it may go.
    g = _wheel(6)
    csr = g.csr()
    rim = csr.member_slots(range(1, 7))
    core, rows = csr.strong_collapse(rim)
    assert core == rim and all(len(row) == 2 for row in rows.values())
    assert not csr.span_connected_verdict(rim, 5)
    assert csr.span_connected_verdict(rim, 6)


def test_scratch_is_zero_after_verdict_criterion_and_error():
    g = _wheel(6)
    csr = g.csr()
    slots = csr.ball_slots(1, 2)[1:]  # the hub and the other rim vertices
    assert csr.span_connected_verdict(slots, 3)
    _assert_scratch_clean(csr)
    assert not csr.span_connected_verdict(csr.ball_slots(0, 1)[1:], 3)
    _assert_scratch_clean(csr)
    # Pinned to one triangle, the collapse removes the rest of the rim.
    assert csr.short_cycles_contain([(0, 1), (1, 2), (2, 0)], 3)
    _assert_scratch_clean(csr)
    rim = [(v, v % 6 + 1) for v in range(1, 7)]
    assert csr.short_cycles_contain(rim, 3)
    _assert_scratch_clean(csr)
    csr.delete_vertex(0)
    csr.add_vertex(7)
    csr.add_edge(7, 1)
    csr.add_edge(7, 2)  # dominated by 1 and by 2
    assert not csr.short_cycles_contain(rim, 5)
    _assert_scratch_clean(csr)
    with pytest.raises(ValueError):
        csr.span_connected_verdict(slots, 2)
    _assert_scratch_clean(csr)
    with pytest.raises(ValueError):
        csr.short_cycles_contain(rim, 2)
    _assert_scratch_clean(csr)


def test_add_vertex_grows_the_collapse_scratch():
    g = _wheel(5)
    csr = g.csr()
    csr.add_vertex(10)
    assert len(csr._bit) == len(csr._closed) == len(csr.ids) == 7
    for v in range(1, 6):
        csr.add_edge(10, v)
    csr.delete_vertex(0)
    # The new slot replaces the hub: its punctured 1-ball is the bare
    # 5-cycle, short only from tau 5, and it is the last slot of the
    # scratch arrays.
    new = csr.index[10]
    assert new == 6 and new in csr.ball_slots(1, 2)
    assert csr.span_connected_verdict(csr.ball_slots(10, 1)[1:], 4) is False
    assert csr.span_connected_verdict(csr.ball_slots(10, 1)[1:], 5) is True
    # Around a rim vertex the new hub dominates: a one-vertex core.
    core, rows = csr.strong_collapse(csr.ball_slots(1, 2)[1:])
    assert len(core) == 1 and rows == {core[0]: []}
    _assert_scratch_clean(csr)
    for v in g.vertices():
        for tau in (3, 4, 5, 6):
            ball = csr.ball_slots(v, math.ceil(tau / 2))[1:]
            assert csr.span_connected_verdict(ball, tau) == oracle_deletable(g, v, tau)


# ----------------------------------------------------------------------
# The tree closure before the rank stages
# ----------------------------------------------------------------------
TAUS = [3, 4, 5, 6, 7, 8]


def _stages_forbidden(monkeypatch):
    def fail(*args):
        raise AssertionError("a rank stage ran")

    for name in ("_triangle_stage", "_square_stage", "_bfs_stage"):
        monkeypatch.setattr(CSRGraph, name, fail)


@pytest.mark.parametrize("tau", TAUS)
def test_closure_solves_the_cycle_chord_exactly_when_it_is_short(tau, monkeypatch):
    # Either way no stage runs: a lone residual chord lies on no short
    # cycle, or the closure would have solved it.
    _stages_forbidden(monkeypatch)
    for n in range(3, 11):
        csr = cycle_graph(n).csr()
        span = csr.short_cycle_span(tau)
        assert span.nu == 1
        assert span.closed == (1 if n <= tau else 0)
        assert span.rank == span.closed
        assert csr.span_connected_verdict(csr.member_slots(range(n)), tau) is (n <= tau)


@pytest.mark.parametrize("tau", TAUS)
def test_wheel_and_triangulated_grid_close_with_no_stage(
    tau, wheel8, trigrid6, monkeypatch
):
    _stages_forbidden(monkeypatch)
    for graph in (wheel8, trigrid6.graph):
        span = graph.csr().short_cycle_span(tau)
        assert span.nu > 0
        assert span.closed == span.rank == span.nu


def test_square_grid_closes_only_from_tau_four(grid5):
    csr = grid5.graph.csr()
    at3 = csr.short_cycle_span(3)
    assert at3.nu == 16 and at3.closed == 0 and at3.rank == 0
    at4 = csr.short_cycle_span(4)
    assert at4.closed == at4.rank == at4.nu == 16


def test_two_residual_chords_can_share_a_short_cycle():
    # The closure leaves two chords here and one 4-cycle carries both,
    # so the last unit of rank comes from the stages: only a lone
    # residual chord is known to lie on no short cycle.
    edges = [(0, 7), (1, 4), (1, 8), (2, 4), (2, 6), (2, 8), (3, 5), (3, 7),
             (3, 8), (5, 8), (6, 7)]
    g = NetworkGraph(range(9), edges)
    span = g.csr().short_cycle_span(4)
    assert span.nu - span.closed == 2
    assert span.rank == span.closed + 1 == ShortCycleSpan(g, 4, use_csr=False).rank


@pytest.mark.parametrize("tau", TAUS)
def test_closure_keeps_span_queries_exact(tau):
    # The closure zeroes solved chords in ``amask`` and writes unit
    # pivots; rank, reduce and project must still answer for the
    # whole span, as the dict oracle does.  This graph has a hole no
    # cycle of length <= 8 fills, so both answers occur at every tau.
    g = _unit_disk_graph(7, n=30, radius=0.3)
    staged = ShortCycleSpan(g, tau)
    oracle = ShortCycleSpan(g, tau, use_csr=False)
    assert staged.rank == oracle.rank
    nxg = nx.Graph(list(g.edges()))
    cycles = nx.cycle_basis(nxg) + list(
        islice(nx.simple_cycles(nxg, length_bound=tau), 200)
    )
    answers = [staged.contains_vertex_cycle(c) for c in cycles]
    assert answers == [oracle.contains_vertex_cycle(c) for c in cycles]
    assert True in answers and False in answers
