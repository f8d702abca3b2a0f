"""Void Preserving Transformation (Definition 5).

A vertex ``x`` may be deleted from ``H`` when its punctured k-hop
neighbourhood graph ``Gamma^k_H(x) = H[N^k_H(x)]`` (which excludes ``x``)
is connected and all its irreducible cycles have length at most ``tau``,
with ``k = ceil(tau / 2)``.  Deleting such a vertex preserves the
tau-partitionability of the boundary (Theorem 5): every short cycle through
``x`` lives inside the k-ball and can be rewritten as a sum of short cycles
that avoid ``x``.

The irreducible-cycle bound is evaluated through the equivalent (and much
cheaper) spanning test of :class:`repro.cycles.ShortCycleSpan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.checks.sanitizer import oracle_deletable
from repro.cycles.horton import ShortCycleSpan
from repro.network.graph import NetworkGraph
from repro.topology import LocalTopologyEngine
from repro.topology.radii import deletion_radius


def vertex_deletable(graph: NetworkGraph, v: int, tau: int) -> bool:
    """Can ``v`` be removed by a tau-void-preserving transformation?

    The test uses only the connectivity of the k-hop neighbourhood of
    ``v`` — exactly the information a node can gather locally in a
    distributed execution.  It is a one-shot computation on the dict
    oracle (:func:`repro.checks.sanitizer.oracle_deletable`); repeated
    tests on a mutating graph belong on a
    :class:`~repro.topology.LocalTopologyEngine`, which caches verdicts.
    """
    return oracle_deletable(graph, v, tau)


def edge_deletable(graph: NetworkGraph, u: int, v: int, tau: int) -> bool:
    """Can edge ``(u, v)`` be removed by a tau-void-preserving transformation?

    Oracle of Definition 5's edge case (the scheduler deletes vertices
    only).  The local graph is the induced subgraph on the union of the
    endpoints' k-hop balls with the edge itself removed; the edge is
    deletable when its endpoints stay connected there and every
    irreducible cycle of the local graph is bounded by ``tau`` — then any
    short cycle through the edge can be re-expressed with cycles that
    avoid it.
    """
    if not graph.has_edge(u, v):
        raise KeyError(f"edge ({u}, {v}) not in graph")
    k = deletion_radius(tau)
    ball = graph.k_hop_neighborhood(u, k) | graph.k_hop_neighborhood(v, k)
    ball.update((u, v))
    local = graph.induced_subgraph(ball)
    local.remove_edge(u, v)
    if local.shortest_path(u, v) is None:
        return False
    return ShortCycleSpan(local, tau).spans_cycle_space()


@dataclass
class TransformationStep:
    """One recorded operation of a void preserving transformation."""

    kind: str  # "vertex" or "edge"
    target: Tuple[int, ...]


@dataclass
class VoidPreservingTransformation:
    """A checked, replayable sequence of void-preserving deletions.

    Oracle of Definition 5 as a sequence of steps.  Wraps a working copy
    of the input graph behind a :class:`LocalTopologyEngine`; every
    requested deletion is validated against Definition 5 before it is
    applied, so any reachable state of :attr:`graph` preserves boundary
    tau-partitionability.  Deletability caches survive between steps and
    only the dirty region of each deletion is re-examined.
    """

    graph: NetworkGraph
    tau: int
    steps: List[TransformationStep] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.tau < 3:
            raise ValueError("confine size must be at least 3")
        self._engine = LocalTopologyEngine(self.graph.copy(), self.tau)
        self.graph = self._engine.graph

    @property
    def engine(self) -> LocalTopologyEngine:
        return self._engine

    def delete_vertex(self, v: int) -> None:
        if not self._engine.deletable(v):
            raise ValueError(
                f"vertex {v} is not {self.tau}-void-preserving deletable"
            )
        self._engine.delete_vertex(v)
        self.steps.append(TransformationStep("vertex", (v,)))

    def delete_edge(self, u: int, v: int) -> None:
        if not edge_deletable(self.graph, u, v, self.tau):
            raise ValueError(
                f"edge ({u}, {v}) is not {self.tau}-void-preserving deletable"
            )
        self._engine.delete_edge(u, v)
        self.steps.append(TransformationStep("edge", (u, v)))

    def try_delete_vertex(self, v: int) -> bool:
        """Delete ``v`` if permitted; report whether it happened."""
        if v not in self.graph or not self._engine.deletable(v):
            return False
        self._engine.delete_vertex(v)
        self.steps.append(TransformationStep("vertex", (v,)))
        return True


def deletable_vertices(
    graph: NetworkGraph, tau: int, exclude: Optional[Set[int]] = None
) -> List[int]:
    """All vertices currently deletable under the tau-VPT rule."""
    exclude = exclude or set()
    return [
        v
        for v in sorted(graph.vertices())
        if v not in exclude and vertex_deletable(graph, v, tau)
    ]
