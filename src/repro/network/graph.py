"""Lightweight undirected graph used throughout the library.

``NetworkGraph`` is a thin adjacency-set structure tuned for the access
patterns of the coverage algorithms: k-hop neighbourhood extraction, vertex
deletion, induced subgraphs, and connectivity queries.  It intentionally does
not depend on :mod:`networkx` for its hot paths, but converts to and from
``networkx.Graph`` for interoperability with deployments and visualisation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

Edge = Tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """Return the edge ``(u, v)`` with endpoints in sorted order."""
    if u == v:
        raise ValueError("self-loops are not allowed in a communication graph")
    return (u, v) if u < v else (v, u)


class NetworkGraph:
    """A simple undirected graph without self-loops or parallel edges.

    Vertices are hashable identifiers (node ids are plain ``int`` in this
    library).  The structure is mutable; the coverage scheduler removes
    vertices as it thins the network.  Every mutation bumps :attr:`version`,
    which lets caches layered on top (notably
    :class:`repro.topology.LocalTopologyEngine`) detect staleness cheaply.

    Adjacency rows are shared copy-on-write between a graph and its
    :meth:`copy`.  ``_owned`` is ``None`` while every row belongs to this
    graph alone (it was never copied); otherwise it holds the vertices
    whose rows this graph has written since, each row copied before that
    first write.  Rows handed out by
    :meth:`neighbors` and :meth:`remove_vertex` may therefore be shared
    with another graph: they are read-only.
    """

    __slots__ = ("_adj", "_version", "_csr", "_owned")

    def __init__(
        self,
        vertices: Iterable[int] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self._adj: Dict[int, Set[int]] = {}
        self._version = 0
        self._csr = None
        self._owned: Optional[Set[int]] = None
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation."""
        return self._version

    def csr(self):
        """The graph's CSR mirror (see :mod:`repro.cycles.kernel`).

        Built on first request and cached; any mutation applied through
        the mirror keeps it in lock-step, while an out-of-band mutation
        bumps :attr:`version` past the mirror's and triggers a rebuild
        here.  Consumers holding a fresh mirror get array-based BFS and
        span tests without ever copying adjacency.
        """
        from repro.cycles.kernel import CSRGraph

        if self._csr is None or self._csr.version != self._version:
            self._csr = CSRGraph(self)
        return self._csr

    # -- pickling (drop the CSR mirror: cheap to rebuild, heavy to ship).
    # The ownership set travels too: pickle's memo keeps a row shared by
    # two graphs of one dump shared after loading, so it must stay unowned.
    def __getstate__(self):
        return {"_adj": self._adj, "_version": self._version, "_owned": self._owned}

    def __setstate__(self, state) -> None:
        self._adj = state["_adj"]
        self._version = state["_version"]
        self._owned = state.get("_owned")
        self._csr = None

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(cls, graph) -> "NetworkGraph":
        """Build a :class:`NetworkGraph` from a ``networkx.Graph``."""
        out = cls(graph.nodes(), graph.edges())
        return out

    def to_networkx(self):
        """Return an equivalent ``networkx.Graph``."""
        import networkx as nx

        out = nx.Graph()
        out.add_nodes_from(self._adj)
        out.add_edges_from(self.edges())
        return out

    def copy(self) -> "NetworkGraph":
        """Return an independent copy of the graph (no shared CSR mirror).

        O(V): only the vertex dict is copied.  Both graphs then share
        every row copy-on-write, so neither owns any row, and each copies
        a row on its own first write to it.  Mutations of either graph
        never show in the other.
        """
        clone = NetworkGraph()
        clone._adj = self._adj.copy()
        clone._owned = set()
        self._owned = set()
        return clone

    def _private_row(self, u: int) -> Set[int]:
        """``u``'s row, safe to write in place: copied first if it may be
        shared, created empty if ``u`` is new."""
        row = self._adj.get(u)
        owned = self._owned
        if owned is not None and u not in owned:
            owned.add(u)
            row = self._adj[u] = set() if row is None else set(row)
        elif row is None:
            row = self._adj[u] = set()
        return row

    # ------------------------------------------------------------------
    # Basic mutation
    # ------------------------------------------------------------------
    def add_vertex(self, v: int) -> None:
        self._adj.setdefault(v, set())
        self._version += 1

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("self-loops are not allowed")
        if self._owned is None:
            # Never copied: every row is ours, so the build path pays no
            # ownership check.
            self._adj.setdefault(u, set()).add(v)
            self._adj.setdefault(v, set()).add(u)
        else:
            self._private_row(u).add(v)
            self._private_row(v).add(u)
        self._version += 1

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) not in graph")
        self._private_row(u).remove(v)
        self._private_row(v).remove(u)
        self._version += 1

    def remove_vertex(self, v: int) -> Set[int]:
        """Delete ``v`` in place; returns its former neighbour set.

        The returned set may be shared with a copy of this graph: read it,
        never mutate it.
        """
        try:
            nbrs = self._adj.pop(v)
        except KeyError as exc:
            raise KeyError(f"vertex {v} not in graph") from exc
        if self._owned is not None:
            self._owned.discard(v)
        for u in nbrs:
            self._private_row(u).discard(v)
        self._version += 1
        return nbrs

    def remove_vertices(self, vs: Iterable[int]) -> None:
        for v in vs:
            self.remove_vertex(v)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[int]:
        return iter(self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, v: int) -> Set[int]:
        """``v``'s adjacency row itself, not a copy.  It may be shared with
        a copy of this graph, so it is read-only."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def vertices(self) -> List[int]:
        return list(self._adj)

    def vertex_set(self) -> Set[int]:
        return set(self._adj)

    def edges(self) -> List[Edge]:
        out: List[Edge] = []
        for u, nbrs in self._adj.items():
            for v in sorted(nbrs):
                if u < v:
                    out.append((u, v))
        return out

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def average_degree(self) -> float:
        if not self._adj:
            return 0.0
        return 2.0 * self.num_edges() / len(self._adj)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def bfs_distances(
        self, source: int, cutoff: Optional[int] = None
    ) -> Dict[int, int]:
        """Hop distances from ``source``, optionally truncated at ``cutoff``.

        Neighbours are visited in sorted-id order, so the dict's order is
        deterministic.
        """
        if source not in self._adj:
            raise KeyError(f"vertex {source} not in graph")
        dist = {source: 0}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            d = dist[u]
            if cutoff is not None and d >= cutoff:
                continue
            for w in sorted(self._adj[u]):
                if w not in dist:
                    dist[w] = d + 1
                    frontier.append(w)
        return dist

    def k_hop_neighborhood(self, v: int, k: int) -> Set[int]:
        """Vertices within ``k`` hops of ``v``, excluding ``v`` itself.

        This is :math:`N^k_H(v)` in the paper's notation.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        dist = self.bfs_distances(v, cutoff=k)
        dist.pop(v, None)
        return set(dist)

    def induced_subgraph(self, vs: Iterable[int]) -> "NetworkGraph":
        """Vertex-induced subgraph :math:`H[X]` (its rows are its own)."""
        keep = set(vs)
        missing = keep - set(self._adj)
        if missing:
            raise KeyError(f"vertices not in graph: {sorted(missing)[:5]}")
        sub = NetworkGraph()
        sub._adj = {v: self._adj[v] & keep for v in keep}
        return sub

    def subgraph_view(self, vs: Iterable[int]) -> "SubgraphView":
        """A read-only induced-subgraph *view* (no adjacency copy).

        Rows are intersected with the kept vertex set lazily and cached, so
        a consumer that reads only part of the subgraph never pays for the
        rest.  The view snapshots nothing: it reflects the base graph at the
        moment rows are first materialised, so it must not outlive mutations
        of the base graph (:class:`repro.topology.LocalTopologyEngine`
        enforces this with :attr:`version`).
        """
        return SubgraphView(self, vs)

    def punctured_neighborhood_graph(self, v: int, k: int) -> "NetworkGraph":
        """The paper's :math:`\\Gamma^k_H(v) = H[N^k_H(v)]` (excludes ``v``)."""
        return self.induced_subgraph(self.k_hop_neighborhood(v, k))

    def is_connected(self) -> bool:
        if not self._adj:
            return True
        start = next(iter(self._adj))
        return len(self.bfs_distances(start)) == len(self._adj)

    def connected_components(self) -> List[Set[int]]:
        seen: Set[int] = set()
        comps: List[Set[int]] = []
        for v in self._adj:
            if v in seen:
                continue
            comp = set(self.bfs_distances(v))
            seen |= comp
            comps.append(comp)
        return comps

    def shortest_path(self, source: int, target: int) -> Optional[List[int]]:
        """A shortest path as a vertex list, or ``None`` if disconnected."""
        if source not in self._adj or target not in self._adj:
            raise KeyError("endpoint not in graph")
        if source == target:
            return [source]
        parent: Dict[int, int] = {source: source}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            for w in sorted(self._adj[u]):
                if w in parent:
                    continue
                parent[w] = u
                if w == target:
                    path = [w]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                frontier.append(w)
        return None

    def edge_set(self) -> Set[FrozenSet[int]]:
        return {frozenset(e) for e in self.edges()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkGraph(|V|={len(self)}, |E|={self.num_edges()})"


class SubgraphView:
    """Read-only induced subgraph over a base :class:`NetworkGraph`.

    Implements the query/traversal surface of :class:`NetworkGraph` (the
    duck type consumed by the cycle-space code) without copying adjacency:
    rows are intersected with the kept set on first access and cached.
    """

    __slots__ = ("_base", "_keep", "_rows")

    def __init__(self, base: NetworkGraph, vs: Iterable[int]) -> None:
        keep = set(vs)
        missing = keep - set(base._adj)
        if missing:
            raise KeyError(f"vertices not in graph: {sorted(missing)[:5]}")
        self._base = base
        self._keep = keep
        self._rows: Dict[int, Set[int]] = {}

    # -- queries -------------------------------------------------------
    def __contains__(self, v: int) -> bool:
        return v in self._keep

    def __len__(self) -> int:
        return len(self._keep)

    def __iter__(self) -> Iterator[int]:
        return iter(self._keep)

    def neighbors(self, v: int) -> Set[int]:
        row = self._rows.get(v)
        if row is None:
            if v not in self._keep:
                raise KeyError(f"vertex {v} not in view")
            row = self._base._adj[v] & self._keep
            self._rows[v] = row
        return row

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._keep and v in self._keep and self._base.has_edge(u, v)

    def vertices(self) -> List[int]:
        return sorted(self._keep)

    def vertex_set(self) -> Set[int]:
        return set(self._keep)

    def edges(self) -> List[Edge]:
        out: List[Edge] = []
        for u in sorted(self._keep):
            for v in sorted(self.neighbors(u)):
                if u < v:
                    out.append((u, v))
        return out

    def num_edges(self) -> int:
        return sum(len(self.neighbors(v)) for v in self._keep) // 2

    # -- traversal (mirrors NetworkGraph) ------------------------------
    def bfs_distances(
        self, source: int, cutoff: Optional[int] = None
    ) -> Dict[int, int]:
        if source not in self._keep:
            raise KeyError(f"vertex {source} not in view")
        dist = {source: 0}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            d = dist[u]
            if cutoff is not None and d >= cutoff:
                continue
            for w in sorted(self.neighbors(u)):
                if w not in dist:
                    dist[w] = d + 1
                    frontier.append(w)
        return dist

    def is_connected(self) -> bool:
        if not self._keep:
            return True
        start = next(iter(self._keep))
        return len(self.bfs_distances(start)) == len(self._keep)

    def connected_components(self) -> List[Set[int]]:
        seen: Set[int] = set()
        comps: List[Set[int]] = []
        for v in sorted(self._keep):
            if v in seen:
                continue
            comp = set(self.bfs_distances(v))
            seen |= comp
            comps.append(comp)
        return comps

    def to_graph(self) -> NetworkGraph:
        """Materialise the view as an independent :class:`NetworkGraph`."""
        return self._base.induced_subgraph(self._keep)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SubgraphView(|V|={len(self)})"
