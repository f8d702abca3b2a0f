"""HGC: the homology-group coverage baseline (Ghrist et al.).

The state-of-the-art connectivity-based comparator of the paper's
evaluation.  Verification lifts the network to its Rips 2-complex and
checks that the first homology group relative to the boundary fence is
trivial; scheduling is the natural completion used for the Figure-4
comparison — centralized greedy vertex removal that keeps the verification
invariant true, so coverage units are always triangles (the granularity
HGC is locked to, per Section III-C).

HGC requires the unit-disk communication model and the sensing condition
``Rs >= Rc / sqrt(3)`` (``gamma <= sqrt(3)``) for its verification to imply
blanket coverage; neither restriction applies to DCC.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

from repro.homology.homology import relative_betti_1
from repro.homology.simplicial import FenceSubcomplex, RipsComplex
from repro.network.graph import NetworkGraph

#: HGC's verification implies blanket coverage only up to this ratio.
HGC_MAX_SENSING_RATIO = math.sqrt(3.0)


@dataclass(frozen=True)
class HGCVerification:
    """Outcome of an HGC coverage verification.

    ``verified`` combines the two halves of de Silva and Ghrist's theorem:

    * the first homology group relative to the fence is trivial (what this
      paper's Section II describes), and
    * the boundary certificate: some relative 2-cycle of triangles has the
      fence class as its boundary (``rank(d2) > rank(d2 rel)`` over GF(2)),
      which rules out degenerate cases such as a bare fence ring with no
      triangles at all, where ``H1(F, F) = 0`` holds vacuously.
    """

    relative_betti_1: int
    num_triangles: int
    has_boundary_certificate: bool

    @property
    def verified(self) -> bool:
        return self.relative_betti_1 == 0 and self.has_boundary_certificate


def hgc_verify(
    graph: NetworkGraph, boundary_cycles: Sequence[Sequence[int]]
) -> HGCVerification:
    """Ghrist et al.'s criterion: trivial ``H1`` relative to the fence.

    Note the criterion is *sufficient but not necessary* — the paper's
    Figure 1 Möbius-band network is fully covered yet fails this test,
    while the cycle-partition criterion accepts it.
    """
    from repro.cycles.gf2 import gf2_rank
    from repro.homology.boundary_ops import boundary_2_columns, edge_chain_basis

    complex_ = RipsComplex.from_graph(graph)
    fence = FenceSubcomplex.from_cycles(boundary_cycles)
    b1 = relative_betti_1(complex_, fence)
    full_rank = gf2_rank(
        boundary_2_columns(complex_, edge_chain_basis(graph))
    )
    rel_rank = gf2_rank(
        boundary_2_columns(complex_, edge_chain_basis(graph, set(fence.edges)))
    )
    return HGCVerification(
        relative_betti_1=b1,
        num_triangles=complex_.num_triangles,
        has_boundary_certificate=full_rank > rel_rank,
    )


@dataclass
class HGCScheduleResult:
    """Outcome of the HGC greedy scheduler."""

    active: NetworkGraph
    removed: List[int]
    passes: int
    verifications: int
    initial_betti_1: int
    final_betti_1: int

    @property
    def coverage_set(self) -> Set[int]:
        return self.active.vertex_set()

    @property
    def num_active(self) -> int:
        return len(self.active)


def hgc_schedule(
    graph: NetworkGraph,
    boundary_cycles: Sequence[Sequence[int]],
    protected: Iterable[int],
    rng: Optional[random.Random] = None,
    max_passes: int = 8,
    require_verified: bool = False,
    seed: int = 0,
) -> HGCScheduleResult:
    """Greedy centralized node removal preserving the homology invariant.

    Repeatedly sweeps the internal nodes in random order, removing a node
    whenever the relative first Betti number does not change (so a network
    that verifies stays verified, and a network with pre-existing raster
    holes never grows new ones); stops at a fixed point.  With
    ``require_verified=True`` the input must pass :func:`hgc_verify`
    outright, as in the idealised setting of Ghrist et al.  Reproducible
    by default: without an explicit ``rng``, uses ``random.Random(seed)``.
    """
    rng = rng if rng is not None else random.Random(seed)
    work = graph.copy()
    protected_set = set(protected)
    initial = hgc_verify(work, boundary_cycles)
    if require_verified and not initial.verified:
        raise ValueError(
            "HGC cannot schedule a network that fails its own verification "
            f"(relative b1 = {initial.relative_betti_1})"
        )
    target = (initial.relative_betti_1, initial.has_boundary_certificate)
    removed: List[int] = []
    verifications = 1
    passes = 0
    while passes < max_passes:
        passes += 1
        order = [v for v in work.vertices() if v not in protected_set]
        rng.shuffle(order)
        removed_this_pass = 0
        for v in order:
            candidate = work.copy()
            candidate.remove_vertex(v)
            verifications += 1
            check = hgc_verify(candidate, boundary_cycles)
            if (check.relative_betti_1, check.has_boundary_certificate) == target:
                work = candidate
                removed.append(v)
                removed_this_pass += 1
        if removed_this_pass == 0:
            break
    return HGCScheduleResult(
        active=work,
        removed=removed,
        passes=passes,
        verifications=verifications,
        initial_betti_1=target[0],
        final_betti_1=hgc_verify(work, boundary_cycles).relative_betti_1,
    )
