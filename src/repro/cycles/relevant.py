"""Relevant (irreducible) cycles — the union of all minimum cycle bases.

Definition 4 of the paper calls a cycle *irreducible* when it cannot be
written as a sum of strictly shorter cycles; the concept originates in
chemical structure search, where Vismara [21] characterised these as the
*relevant* cycles: exactly the cycles that appear in at least one minimum
cycle basis.

The paper's Algorithm 1 only needs their extreme lengths, which
:func:`repro.cycles.horton.irreducible_cycle_bounds` computes from the
Horton candidates.  This module holds the reference oracles for it, each
testing Definition 4 itself: a cycle ``C`` is relevant iff it does not
lie in the span of the cycles shorter than it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cycles.cycle_space import Cycle, EdgeIndex
from repro.cycles.gf2 import GF2Basis
from repro.cycles.horton import _ChordSpace, horton_candidate_cycles
from repro.network.graph import NetworkGraph


def is_relevant_cycle(graph: NetworkGraph, vertices: List[int]) -> bool:
    """Is the given simple cycle irreducible in ``graph``?

    Checks the definition directly: the cycle must not be a GF(2) sum of
    strictly shorter cycles, whose span equals the span of Horton
    candidates capped one below the cycle's length.
    """
    length = len(vertices)
    if length < 3:
        raise ValueError("a simple cycle needs at least three vertices")
    chords = _ChordSpace(graph)
    target = chords.project_vertex_cycle(vertices)
    shorter = GF2Basis()
    for candidate in horton_candidate_cycles(graph, max_length=length - 1):
        shorter.add(chords.project_vertex_cycle(candidate))
    return not shorter.contains(target)


def relevant_cycles_exact(
    graph: NetworkGraph, index: Optional[EdgeIndex] = None
) -> List[Cycle]:
    """The exact relevant-cycle set, by exhaustive cycle enumeration.

    Oracle of Definition 4: enumerates every simple cycle (exponential —
    small graphs only) and applies the definition verbatim: a cycle is
    relevant iff it is not a GF(2) sum of strictly shorter cycles.  It
    shares no candidate generation with
    :func:`repro.cycles.horton.irreducible_cycle_bounds`, so the tests
    check Algorithm 1's extreme lengths against it.
    """
    import networkx as nx

    if index is None:
        index = EdgeIndex.from_graph(graph)
    cycles = [
        tuple(c)
        for c in nx.simple_cycles(graph.to_networkx())
        if len(c) >= 3
    ]
    by_length: Dict[int, List[Tuple[int, ...]]] = {}
    for vertices in cycles:
        by_length.setdefault(len(vertices), []).append(vertices)

    shorter_span = GF2Basis()
    chords = _ChordSpace(graph)
    out: List[Cycle] = []
    for length in sorted(by_length):
        group = by_length[length]
        projections = [
            (vertices, chords.project_vertex_cycle(vertices))
            for vertices in group
        ]
        for vertices, projection in projections:
            if not shorter_span.contains(projection):
                out.append(Cycle.from_vertices(vertices, index))
        for __, projection in projections:
            shorter_span.add(projection)
    return out

