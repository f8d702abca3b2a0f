"""Barrier coverage as an instance of confine coverage (Section III-C).

The paper observes that confine coverage "bridges the gap" between blanket
and barrier coverage: barrier coverage is confine coverage with a confine
size of network scale.  This module makes that concrete for the classic
belt-region setting with a connectivity-only test.

The key geometric fact: when ``gamma = Rc / Rs <= 2``, any two
communication neighbours have overlapping sensing disks (their distance is
at most ``Rc <= 2 Rs``), so a *communication path* between the belt's left
and right anchor bands is a chain of overlapping disks — an unbroken
sensing wall no crossing trajectory can avoid.  k-barrier coverage follows
from ``k`` internally vertex-disjoint such paths (Menger).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set

from repro.network.graph import NetworkGraph

#: Above this sensing ratio neighbouring disks may fail to overlap and a
#: communication path no longer implies a sensing barrier.
MAX_BARRIER_SENSING_RATIO = 2.0


@dataclass
class BarrierResult:
    """Outcome of a barrier-coverage analysis."""

    strength: int
    chains: List[List[int]] = field(default_factory=list)

    @property
    def covered(self) -> bool:
        return self.strength >= 1

    def provides(self, k: int) -> bool:
        return self.strength >= k


def _validate(gamma: float) -> None:
    if gamma <= 0:
        raise ValueError("sensing ratio must be positive")
    if gamma > MAX_BARRIER_SENSING_RATIO + 1e-12:
        raise ValueError(
            "a communication chain only implies a sensing barrier for "
            f"gamma <= {MAX_BARRIER_SENSING_RATIO}"
        )


def barrier_exists(
    graph: NetworkGraph,
    left_anchor: Iterable[int],
    right_anchor: Iterable[int],
    gamma: float,
) -> bool:
    """Is there at least one sensing barrier across the belt?

    Oracle of Section III-C's barrier instance of confine coverage.
    ``left_anchor`` / ``right_anchor`` are the nodes touching the belt's
    short sides (the analogue of the boundary-role assumption).  Uses only
    connectivity.
    """
    _validate(gamma)
    left = set(left_anchor)
    right = set(right_anchor)
    if not left or not right:
        return False
    if left & right:
        return True
    frontier = sorted(left & graph.vertex_set())
    seen = set(frontier)
    while frontier:
        node = frontier.pop()
        if node in right:
            return True
        for neighbor in sorted(graph.neighbors(node)):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return bool(seen & right)


#: Flow-network node labels: ``(_IN, v)``/``(_OUT, v)`` split sensor
#: ``v``; the super source and sink sit outside every sensor's pair.
_IN, _OUT = 0, 1
_SOURCE, _SINK = (-1, 0), (-1, 1)


def barrier_strength(
    graph: NetworkGraph,
    left_anchor: Iterable[int],
    right_anchor: Iterable[int],
    gamma: float,
) -> BarrierResult:
    """Maximum ``k`` such that the belt is k-barrier covered.

    Computes the maximum number of internally vertex-disjoint
    communication paths between the anchors (Menger / max-flow with unit
    vertex capacities), plus one witness chain per unit of strength.
    """
    _validate(gamma)
    import networkx as nx

    left = set(left_anchor) & graph.vertex_set()
    right = set(right_anchor) & graph.vertex_set()
    if not left or not right:
        return BarrierResult(strength=0)

    # Standard vertex-disjoint-paths reduction: split every vertex into an
    # in/out pair with unit capacity (anchors included, so chains never
    # share any sensor), infinite-capacity arcs along edges and from the
    # super source/sink to the anchors.  Flow nodes are int pairs, never
    # strings: string hashes vary per process, and networkx's max-flow
    # would then pick different (equally maximum) chains per run.
    flow = nx.DiGraph()
    source, sink = _SOURCE, _SINK
    infinite = len(graph) + 1
    for v in graph.vertices():
        flow.add_edge((_IN, v), (_OUT, v), capacity=1)
    for v in left:
        flow.add_edge(source, (_IN, v), capacity=infinite)
    for v in right:
        flow.add_edge((_OUT, v), sink, capacity=infinite)
    for u, v in graph.edges():
        flow.add_edge((_OUT, u), (_IN, v), capacity=infinite)
        flow.add_edge((_OUT, v), (_IN, u), capacity=infinite)

    strength_value, flow_dict = nx.maximum_flow(flow, source, sink)
    chains = _decompose_flow_chains(flow_dict, source, sink, int(strength_value))
    return BarrierResult(strength=int(strength_value), chains=chains)


def _decompose_flow_chains(
    flow_dict, source, sink, strength: int
) -> List[List[int]]:
    """Trace unit flows through the in/out-split network into chains.

    Greedy witness extraction (shortest remaining path, delete, repeat)
    can sever the belt diagonally and under-produce chains; decomposing
    the maximum flow itself always yields exactly ``strength`` disjoint
    chains.
    """
    residual = {
        u: {v: int(f) for v, f in targets.items() if f > 0}
        for u, targets in flow_dict.items()
    }
    chains: List[List[int]] = []
    for __ in range(strength):
        chain: List[int] = []
        node = source
        while node != sink:
            targets = residual.get(node, {})
            nxt = next((v for v, f in targets.items() if f > 0), None)
            if nxt is None:
                return chains  # flow exhausted (defensive)
            targets[nxt] -= 1
            if nxt[0] == _IN:
                chain.append(nxt[1])
            node = nxt
        chains.append(chain)
    return chains


def schedule_barrier(
    graph: NetworkGraph,
    left_anchor: Iterable[int],
    right_anchor: Iterable[int],
    gamma: float,
    k: int = 1,
) -> Optional[Set[int]]:
    """A sparse active set providing k-barrier coverage, or ``None``.

    Activates only the nodes of ``k`` disjoint witness chains — the
    confine-coverage view with "cycles of network scale": everything else
    sleeps, yet no trajectory crosses the belt undetected.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    result = barrier_strength(graph, left_anchor, right_anchor, gamma)
    if result.strength < k or len(result.chains) < k:
        return None
    active: Set[int] = set()
    for chain in result.chains[:k]:
        active.update(chain)
    return active
