"""Property test: copy-on-write graph copies never leak writes.

``NetworkGraph.copy`` shares adjacency rows between the two graphs and
copies a row only on a graph's first write to it.  Random interleavings
of every mutator run over a graph and several generations of copies
(plus pickle round trips, induced subgraphs and CSR-mirror deletions);
after every step each graph must match its own dict-of-sets model.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import NetworkGraph

IDS = st.integers(min_value=0, max_value=9)
MAX_GRAPHS = 6

OPS = st.one_of(
    st.tuples(st.just("copy"), IDS),
    st.tuples(st.just("add_vertex"), IDS, IDS),
    st.tuples(st.just("add_edge"), IDS, IDS, IDS),
    st.tuples(st.just("remove_edge"), IDS, IDS, IDS),
    st.tuples(st.just("remove_vertex"), IDS, IDS),
    st.tuples(st.just("remove_vertices"), IDS, st.sets(IDS, max_size=3)),
    st.tuples(st.just("csr_delete"), IDS, IDS),
    st.tuples(st.just("induced"), IDS, st.sets(IDS)),
    st.tuples(st.just("pickle"),),
)


class Tracked:
    """A graph with its dict-of-sets model and expected version."""

    def __init__(self, graph, model, version):
        self.graph = graph
        self.model = model
        self.version = version

    def check(self):
        g, model = self.graph, self.model
        assert g.version == self.version
        assert {v: set(g.neighbors(v)) for v in g} == model
        want = sorted((u, v) for u, row in model.items() for v in row if u < v)
        assert sorted(g.edges()) == want
        assert g.num_edges() == len(want)
        for u in range(10):
            for v in range(10):
                assert g.has_edge(u, v) == (v in model.get(u, ()))


def _apply(pool, op):
    kind, args = op[0], op[1:]
    if kind == "pickle":
        # One dump of the whole pool: pickle's memo keeps shared rows shared.
        graphs = pickle.loads(pickle.dumps([t.graph for t in pool]))
        for t, g in zip(pool, graphs):
            t.graph = g
        return
    t = pool[args[0] % len(pool)]
    g, model = t.graph, t.model
    if kind == "copy":
        if len(pool) < MAX_GRAPHS:
            model_copy = {v: set(row) for v, row in model.items()}
            pool.append(Tracked(g.copy(), model_copy, 0))
    elif kind == "induced":
        keep = args[1] & set(model)
        sub = {v: model[v] & keep for v in keep}
        if len(pool) < MAX_GRAPHS:
            pool.append(Tracked(g.induced_subgraph(keep), sub, 0))
    elif kind == "add_vertex":
        g.add_vertex(args[1])
        model.setdefault(args[1], set())
        t.version += 1
    elif kind == "add_edge":
        u, v = args[1], args[2]
        if u == v:
            return
        g.add_edge(u, v)
        model.setdefault(u, set()).add(v)
        model.setdefault(v, set()).add(u)
        t.version += 1
    elif kind == "remove_edge":
        u, v = args[1], args[2]
        if v in model.get(u, ()):
            g.remove_edge(u, v)
            model[u].discard(v)
            model[v].discard(u)
            t.version += 1
        else:
            try:
                g.remove_edge(u, v)
            except (KeyError, ValueError):
                pass
            else:
                raise AssertionError("removed a missing edge")
    elif kind in ("remove_vertex", "csr_delete"):
        v = args[1]
        if v not in model:
            return
        if kind == "csr_delete":
            csr = g.csr()
            nbrs = csr.delete_vertex(v)
            assert g.csr() is csr  # patched in lock-step, not rebuilt
        else:
            nbrs = g.remove_vertex(v)
        assert set(nbrs) == model[v]
        for u in model.pop(v):
            model[u].discard(v)
        t.version += 1
    elif kind == "remove_vertices":
        vs = sorted(args[1] & set(model))
        g.remove_vertices(vs)
        for v in vs:
            for u in model.pop(v):
                model[u].discard(v)
        t.version += len(vs)


@settings(max_examples=250, deadline=None)
@given(
    edges=st.lists(st.tuples(IDS, IDS), max_size=20),
    ops=st.lists(OPS, min_size=1, max_size=40),
)
def test_copies_match_their_models(edges, ops):
    base = NetworkGraph(range(6))
    model = {v: set() for v in range(6)}
    version = 6
    for u, v in edges:
        if u != v:
            base.add_edge(u, v)
            model.setdefault(u, set()).add(v)
            model.setdefault(v, set()).add(u)
            version += 1
    pool = [Tracked(base, model, version)]
    # A mirror built before the first copy must keep answering for base.
    base.csr()
    for op in ops:
        _apply(pool, op)
        for t in pool:
            t.check()
    for t in pool:
        csr = t.graph.csr()
        for v in t.model:
            ball = {csr.ids[s] for s in csr.ball_slots(v, 1)}
            assert ball == {v} | t.model[v]
