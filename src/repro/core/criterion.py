"""The cycle-partition coverage criterion (Propositions 2 and 3).

A cycle set ``C`` is a *cycle partition* of a cycle ``C0`` when the GF(2)
sum of its members equals ``C0`` (Definition 2); ``C0`` is
*tau-partitionable* when some partition uses only cycles of length at most
``tau`` (Definition 3).  The coverage criterion is then:

* simply-connected target area — the subgraph ``G'`` achieves tau-confine
  coverage if the outer boundary cycle is tau-partitionable in ``G'``
  (Proposition 2);
* multiply-connected target area — same with the GF(2) sum of all boundary
  cycles (Proposition 3).

Equivalently, the boundary sum must lie in the span of all cycles of length
at most ``tau``.  On a :class:`NetworkGraph` the CSR kernel answers it
(:meth:`~repro.cycles.kernel.CSRGraph.short_cycles_contain`): the graph is
strong-collapsed with the boundary vertices pinned, which is exact
(DESIGN.md section 5), and the kernel's staged rank routine — triangles,
4-cycles, truncated-BFS closures — runs on the core until the boundary's
chord vector reduces to zero or the stages are exhausted.  Subgraph views
keep the dict-based :class:`repro.cycles.ShortCycleSpan`, the reference
oracle; under ``REPRO_SANITIZE`` every kernel answer is recomputed on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.checks.sanitizer import current_sanitizer
from repro.cycles.cycle_space import Cycle, EdgeIndex
from repro.cycles.gf2 import gf2_solve
from repro.cycles.horton import ShortCycleSpan, horton_candidate_cycles
from repro.network.graph import Edge, NetworkGraph, canonical_edge

VertexCycle = Sequence[int]


def cycle_edges(cycle: VertexCycle) -> List[Edge]:
    """Edges of a cycle given as a vertex sequence (closing edge implicit).

    The cycle must be simple: a repeated vertex raises ``ValueError``
    naming the first repeat, since the edges of a walk that doubles back
    can cancel to an empty sum that would read as covered.
    """
    if len(cycle) < 3:
        raise ValueError("a simple cycle needs at least three vertices")
    seen: Set[int] = set()
    for v in cycle:
        if v in seen:
            raise ValueError(f"cycle is not simple: vertex {v} repeats")
        seen.add(v)
    return [
        canonical_edge(a, b)
        for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]])
    ]


def boundary_edge_sum(
    boundary_cycles: Sequence[VertexCycle], graph=None
) -> List[Edge]:
    """GF(2) sum (symmetric difference) of the boundary cycles' edge sets.

    With ``graph`` (a :class:`NetworkGraph` or a subgraph view), each
    cycle must also lie in it: a vertex not in the graph raises
    ``KeyError`` and a consecutive pair that is not an edge raises
    ``ValueError``, each naming the first bad item.  Either would
    otherwise read as "not partitionable", indistinguishable from a real
    coverage hole.
    """
    parity: Dict[Edge, int] = {}
    for cycle in boundary_cycles:
        edges = cycle_edges(cycle)
        if graph is not None:
            for v in cycle:
                if v not in graph:
                    raise KeyError(f"boundary vertex {v} not in graph")
            for u, v in edges:
                if not graph.has_edge(u, v):
                    raise ValueError(f"boundary pair ({u}, {v}) is not an edge")
        for edge in edges:
            parity[edge] = parity.get(edge, 0) ^ 1
    return [edge for edge, bit in parity.items() if bit]


def is_tau_partitionable(
    graph: NetworkGraph,
    boundary_cycles: Sequence[VertexCycle],
    tau: int,
) -> bool:
    """Is the boundary (sum) tau-partitionable in ``graph``?

    This is the computational form of Propositions 2/3: the boundary sum
    must be a GF(2) combination of cycles of length at most ``tau`` that
    live entirely inside ``graph``.  Every boundary cycle must be a cycle
    of ``graph``; :func:`boundary_edge_sum` raises on one that is not.
    """
    if not boundary_cycles:
        raise ValueError("at least one boundary cycle is required")
    edges = boundary_edge_sum(boundary_cycles, graph)
    if not hasattr(graph, "csr"):
        return ShortCycleSpan(graph, tau).contains_edges(edges)
    answer = graph.csr().short_cycles_contain(edges, tau)
    sanitizer = current_sanitizer()
    if sanitizer is not None:
        sanitizer.check_criterion(graph, edges, tau, answer)
    return answer


@dataclass(frozen=True)
class CoverageVerdict:
    """Outcome of a coverage-criterion check."""

    tau: int
    partitionable: bool
    cycle_space_rank: int
    short_cycle_rank: int

    @property
    def achieves_confine_coverage(self) -> bool:
        return self.partitionable


def verify_confine_coverage(
    graph: NetworkGraph,
    boundary_cycles: Sequence[VertexCycle],
    tau: int,
) -> CoverageVerdict:
    """Check the cycle-partition criterion and report diagnostics.

    Oracle of Propositions 2 and 3 with its rank diagnostics: the verdict
    is :func:`is_tau_partitionable`, and the ranks are those of the whole
    cycle space and of the span of cycles of length at most ``tau``.
    """
    span = ShortCycleSpan(graph, tau)
    return CoverageVerdict(
        tau=tau,
        partitionable=is_tau_partitionable(graph, boundary_cycles, tau),
        cycle_space_rank=span.cycle_space_dimension,
        short_cycle_rank=span.rank,
    )


def find_cycle_partition(
    graph: NetworkGraph,
    boundary_cycles: Sequence[VertexCycle],
    tau: int,
) -> Optional[List[Cycle]]:
    """An explicit tau-bounded cycle partition of the boundary sum.

    Returns a list of cycles of length at most ``tau`` whose GF(2) sum
    equals the boundary sum, or ``None`` when the boundary is not
    tau-partitionable.  A boundary that is not a cycle of ``graph`` raises,
    as in :func:`boundary_edge_sum`.  This materialises all capped Horton
    candidates and solves a full linear system, so it is intended for
    reporting and tests on small graphs; scheduling only ever needs the
    boolean test.
    """
    target_edges = boundary_edge_sum(boundary_cycles, graph)
    index = EdgeIndex.from_graph(graph)
    target_mask = index.mask_of_edges(target_edges)
    candidates = horton_candidate_cycles(graph, max_length=tau)
    candidates.sort(key=len)
    masks = [index.mask_of_vertex_cycle(c) for c in candidates]
    chosen = gf2_solve(target_mask, masks)
    if chosen is None:
        return None
    return [Cycle.from_vertices(candidates[i], index) for i in chosen]


def partition_is_valid(
    graph: NetworkGraph,
    boundary_cycles: Sequence[VertexCycle],
    partition: Sequence[Cycle],
    tau: int,
) -> bool:
    """Verify that ``partition`` really is a tau-bounded cycle partition.

    A boundary that is not a cycle of ``graph`` raises, as in
    :func:`boundary_edge_sum`.
    """
    target_edges = boundary_edge_sum(boundary_cycles, graph)
    if any(cycle.length > tau for cycle in partition):
        return False
    index = EdgeIndex.from_graph(graph)
    target = index.mask_of_edges(target_edges)
    total = 0
    for cycle in partition:
        total ^= index.mask_of_vertex_cycle(cycle.vertices)
    return total == target
