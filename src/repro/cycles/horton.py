"""Horton-style minimum cycle bases and irreducible-cycle bounds.

This module implements the paper's Algorithm 1 (find the minimum and maximum
sizes of irreducible cycles of a graph, via a modified Horton minimum cycle
basis), plus the two derived predicates the coverage algorithms actually
consume:

* :func:`irreducible_cycle_bounds` — Algorithm 1 verbatim.
* :class:`ShortCycleSpan` — the GF(2) span of all cycles of length at most
  ``tau``.  "The maximum irreducible cycle of ``H`` is bounded by ``tau``"
  is equivalent to "cycles of length at most ``tau`` span the whole cycle
  space of ``H``" (matroid greedy argument; Theorem 4 of the paper together
  with [Chickering-Geiger-Heckerman 1995]), and the span formulation admits a
  far cheaper test: candidate generation can stop at length ``tau`` and the
  elimination can stop as soon as the rank reaches the cycle-space dimension.

Performance notes
-----------------
All linear algebra happens in the *chord space*: after fixing a BFS spanning
forest, a cycle is identified by its set of non-tree edges (chords), an
isomorphism from the cycle space onto GF(2)^nu.  Vectors are ``nu``-bit
integers rather than ``|E|``-bit ones, which shrinks every XOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cycles.cycle_space import (
    Cycle,
    EdgeIndex,
    cycle_space_dimension,
)
from repro.cycles.gf2 import GF2Basis
from repro.cycles.kernel import is_even_subgraph
from repro.cycles.shortest_paths import ShortestPathTree
from repro.network.graph import Edge, NetworkGraph, canonical_edge


def horton_candidate_cycles(
    graph: NetworkGraph, max_length: Optional[int] = None
) -> List[Tuple[int, ...]]:
    """Horton candidate cycles, deduplicated, as vertex tuples.

    For every vertex ``v`` a deterministic BFS shortest-path tree is built;
    for every non-tree edge ``(x, y)`` whose least common ancestor in the
    tree is ``v`` itself, the cycle ``v..x - (x,y) - y..v`` is a candidate
    (Algorithm 1, lines 2-6).  When ``max_length`` is given, BFS trees are
    truncated so only candidates of that length or shorter are produced.
    """
    cutoff = None if max_length is None else max_length // 2
    seen: Set[frozenset] = set()
    out: List[Tuple[int, ...]] = []
    for root in sorted(graph.vertices()):
        spt = ShortestPathTree(graph, root, cutoff=cutoff)
        for x in spt.parent:
            for y in sorted(graph.neighbors(x)):
                if y <= x or y not in spt.parent:
                    continue
                if spt.is_tree_edge(x, y):
                    continue
                length = spt.depth[x] + spt.depth[y] + 1
                if max_length is not None and length > max_length:
                    continue
                if spt.lca(x, y) != root:
                    continue
                up = spt.path_to_root(x)
                up.reverse()  # root .. x
                down = spt.path_to_root(y)[:-1]  # y .. child-of-root
                cycle = tuple(up + down)
                key = frozenset(
                    canonical_edge(a, b)
                    for a, b in zip(cycle, cycle[1:] + cycle[:1])
                )
                if key in seen:
                    continue
                seen.add(key)
                out.append(cycle)
    return out


@dataclass(frozen=True)
class IrreducibleCycleBounds:
    """Result of Algorithm 1: sizes of the extreme irreducible cycles."""

    minimum: int
    maximum: int

    def bounded_by(self, tau: int) -> bool:
        return self.maximum <= tau


class _ChordSpace:
    """BFS spanning forest of a graph plus the chord-bit numbering.

    ``chord_mask`` maps a chord edge — stored under *both* orientations to
    avoid canonicalisation on hot paths — to its single-bit mask.
    """

    __slots__ = ("parent", "chord_mask", "nu")

    def __init__(self, graph: NetworkGraph) -> None:
        parent: Dict[int, int] = {}
        for root in sorted(graph.vertices()):
            if root in parent:
                continue
            parent[root] = root
            frontier = [root]
            while frontier:
                nxt: List[int] = []
                for u in frontier:
                    for w in sorted(graph.neighbors(u)):
                        if w not in parent:
                            parent[w] = u
                            nxt.append(w)
                frontier = nxt
        self.parent = parent
        self.chord_mask: Dict[Tuple[int, int], int] = {}
        bit = 0
        for u, v in sorted(graph.edges()):
            if parent.get(u) == v or parent.get(v) == u:
                continue
            mask = 1 << bit
            self.chord_mask[(u, v)] = mask
            self.chord_mask[(v, u)] = mask
            bit += 1
        self.nu = bit

    def project_vertex_cycle(self, cycle: Sequence[int]) -> int:
        """Chord-space vector of a cycle given as a vertex sequence."""
        mask = 0
        chord_mask = self.chord_mask
        for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
            mask ^= chord_mask.get((a, b), 0)
        return mask

    def project_edges(self, edges: Sequence[Edge]) -> int:
        mask = 0
        for u, v in edges:
            mask ^= self.chord_mask.get((u, v), 0)
        return mask


class ShortCycleSpan:
    """The subspace of the cycle space spanned by cycles of length <= tau.

    The span is computed from Horton candidates capped at length ``tau``;
    this is the whole short-cycle span because every cycle of length ``L``
    is a GF(2) sum of Horton candidates of length at most ``L``.  A
    :class:`NetworkGraph` is spanned by the CSR kernel's staged rank
    routine (:meth:`~repro.cycles.kernel.CSRGraph.short_cycle_span`);
    ``use_csr=False`` and subgraph views stream the closures below, the
    reference oracle.
    """

    def __init__(
        self, graph: NetworkGraph, tau: int, *, use_csr: bool = True
    ) -> None:
        if tau < 3:
            raise ValueError("tau must be at least 3 (the shortest cycle)")
        self.graph = graph
        self.tau = tau
        self._dimension = cycle_space_dimension(graph)
        if use_csr and hasattr(graph, "csr"):
            # Real graphs take the kernel's staged rank routine (views keep
            # the dict oracle).  Its chord numbering is the kernel's own,
            # but the subspace spanned is the same, so ``rank`` and every
            # ``contains`` query agree with the oracle.
            kernel = graph.csr()
            self._slot = kernel.index
            self._basis = kernel.short_cycle_span(tau)
            self._project = self._project_slots
        else:
            self._chords = _ChordSpace(graph)
            self._basis = GF2Basis()
            self._project = self._chords.project_edges
            if self._dimension:
                self._stream_closures()

    def _project_slots(self, edges: Sequence[Edge]) -> int:
        slot = self._slot
        return self._basis.project([(slot[u], slot[v]) for u, v in edges])

    def _stream_closures(self) -> None:
        """Feed tree-path closures to the basis, stopping when rank fills.

        For every BFS root ``r`` and edge ``(x, y)`` inside the truncated
        BFS tree, the closure ``path(r,x) + (x,y) + path(r,y)`` projects —
        shared path prefixes cancel under XOR — to the chord mask of the
        simple cycle through ``lca(x, y)``, whose length is at most
        ``depth(x) + depth(y) + 1 <= tau``.  So no simplicity filtering, no
        deduplication and no path reconstruction are needed: every non-zero
        projected closure is a cycle of length <= tau, and by Horton's
        lemma the closures with ``lca == r`` alone already span every cycle
        of length <= tau.  The chord mask accumulates incrementally along
        BFS tree edges, making each candidate O(1).
        """
        graph = self.graph
        tau = self.tau
        dimension = self._dimension
        basis = self._basis
        chord_mask = self._chords.chord_mask
        cutoff = tau // 2
        adj = {v: graph.neighbors(v) for v in graph.vertices()}
        seen: Set[int] = {0}  # skip exact duplicates before the GF(2) reduce
        for root in graph.vertices():
            depth: Dict[int, int] = {root: 0}
            acc: Dict[int, int] = {root: 0}
            frontier = [root]
            d = 0
            while frontier and d < cutoff:
                nxt: List[int] = []
                for u in frontier:
                    acc_u = acc[u]
                    for w in adj[u]:
                        if w not in depth:
                            depth[w] = d + 1
                            acc[w] = acc_u ^ chord_mask.get((u, w), 0)
                            nxt.append(w)
                frontier = nxt
                d += 1
            budget = tau - 1
            for x, dx in depth.items():
                acc_x = acc[x]
                for y in adj[x]:
                    if y <= x:
                        continue
                    dy = depth.get(y)
                    if dy is None or dx + dy > budget:
                        continue
                    closure = acc_x ^ acc[y] ^ chord_mask.get((x, y), 0)
                    if closure in seen:
                        continue
                    seen.add(closure)
                    if basis.add(closure) and basis.rank == dimension:
                        return

    @property
    def rank(self) -> int:
        return self._basis.rank

    @property
    def cycle_space_dimension(self) -> int:
        return self._dimension

    def spans_cycle_space(self) -> bool:
        """All irreducible cycles of the graph have length <= tau?"""
        return self._basis.rank == self._dimension

    def contains_edges(self, edges: Sequence[Edge]) -> bool:
        """Is the edge set a GF(2) sum of cycles of length <= tau?

        A set with a non-edge of the host graph or an odd-degree vertex
        is not in the cycle space and is rejected outright
        (:func:`~repro.cycles.kernel.is_even_subgraph`).
        """
        if not is_even_subgraph(edges, self.graph.has_edge):
            return False
        return self._basis.reduce(self._project(edges)) == 0

    def contains_vertex_cycle(self, cycle: Sequence[int]) -> bool:
        edges = [
            canonical_edge(a, b)
            for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]])
        ]
        return self.contains_edges(edges)


def minimum_cycle_basis(
    graph: NetworkGraph, index: Optional[EdgeIndex] = None
) -> List[Cycle]:
    """A minimum cycle basis via Horton's greedy algorithm.

    Candidates are sorted by non-decreasing length and added through GF(2)
    Gaussian elimination until ``|E| - |V| + c`` independent cycles have
    been collected (Algorithm 1, lines 7-14).
    """
    if index is None:
        index = EdgeIndex.from_graph(graph)
    nu = cycle_space_dimension(graph)
    if nu == 0:
        return []
    chords = _ChordSpace(graph)
    candidates = horton_candidate_cycles(graph)
    candidates.sort(key=len)
    basis = GF2Basis()
    out: List[Cycle] = []
    for vertices in candidates:
        if basis.add(chords.project_vertex_cycle(vertices)):
            out.append(Cycle.from_vertices(vertices, index))
            if len(out) == nu:
                break
    if len(out) != nu:
        raise RuntimeError(
            "Horton candidate set failed to span the cycle space; "
            "this indicates a bug in candidate generation"
        )
    return out


def irreducible_cycle_bounds(graph: NetworkGraph) -> IrreducibleCycleBounds:
    """Algorithm 1: minimum and maximum sizes of irreducible cycles.

    Returns ``(0, 0)`` for forests, which have no cycles at all.
    """
    basis = minimum_cycle_basis(graph)
    if not basis:
        return IrreducibleCycleBounds(0, 0)
    lengths = [cycle.length for cycle in basis]
    return IrreducibleCycleBounds(min(lengths), max(lengths))
