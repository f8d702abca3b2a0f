"""Deterministic region partitioning of a deployment into shards.

A :class:`ShardPlan` splits the vertex set into disjoint *owned* regions
(seeded multi-source BFS growth, so regions are hop-ball shaped and
contiguous wherever the graph is) and surrounds each region with a
⌈τ/2⌉-hop *halo band* — exactly the radius
:func:`repro.topology.neighborhood_radius` gives the deletability test
and the MIS separation probe.  That radius is what makes sharding sound:

* Any path of length <= k from an owned vertex stays inside
  owned ∪ halo, so a shard's partition graph answers k-balls and
  punctured-neighbourhood verdicts for its owned vertices *exactly* as
  the global graph would.
* Deletions only lengthen distances, so the halo computed on the
  *initial* graph remains sufficient for every later round.
* A winner that blocks one of the shard's owned candidates is at hop
  distance <= k, hence inside the halo band — cross-shard agreement
  needs only boundary-band traffic (see :mod:`repro.shard.halo`).

Everything here is coordinator-side, deterministic and seed-driven: the
same ``(graph, tau, shards, seed)`` always yields the same plan, and the
*schedule* computed over any plan is identical to the unsharded one, so
the partition seed never leaks into results.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.network.graph import NetworkGraph
from repro.topology import halo_radius


@dataclass(frozen=True)
class ShardSpec:
    """One shard's static membership: owned region plus halo band.

    ``owned`` and ``halo`` are disjoint, sorted tuples.  ``boundary`` is
    the subset of ``owned`` that appears in *some other* shard's halo —
    the only vertices whose verdicts and MIS statuses ever need to leave
    this shard.
    """

    index: int
    owned: Tuple[int, ...]
    halo: Tuple[int, ...]
    boundary: Tuple[int, ...]

    @property
    def members(self) -> Tuple[int, ...]:
        """Owned first, then halo — the partition's insertion order.

        The CSR mirror re-sorts ids into slots, so owned/halo *slots*
        are rank-derived sets (see ``LocalShard.owned_slots``), not
        contiguous ranges; the insertion order here only fixes the
        partition graph's deterministic ``vertices()`` order.
        """
        return self.owned + self.halo


@dataclass
class ShardPlan:
    """The full partition: specs plus the cross-shard routing tables."""

    tau: int
    halo_radius: int
    seed: int
    specs: Tuple[ShardSpec, ...]
    #: vertex -> owning shard index (a total map over the graph).
    owner: Dict[int, int]
    #: vertex -> sorted shard indices holding it in their halo band.
    subscribers: Dict[int, Tuple[int, ...]]

    @property
    def shard_count(self) -> int:
        return len(self.specs)

    def signature(self) -> Tuple:
        """A hashable fingerprint for determinism assertions."""
        return (
            self.tau,
            self.halo_radius,
            self.seed,
            tuple((s.owned, s.halo) for s in self.specs),
        )

    def member_sets(self) -> List[Set[int]]:
        """Per-shard ``owned ∪ halo`` membership sets, by shard index."""
        return [set(spec.members) for spec in self.specs]


def partition_parts(
    graph: NetworkGraph, spec: ShardSpec
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], Tuple]:
    """A shard's partition as plain tuples (no object graph).

    ``(owned, halo, boundary, induced edges sorted)`` — the in-process
    transport: the inline backend hands this straight to
    :class:`~repro.shard.runtime.LocalShard`, and the pickled transport
    derives from it.
    """
    members = set(spec.members)
    edges: List[Tuple[int, int]] = []
    for u in spec.members:
        for v in sorted(graph.neighbors(u)):
            if u < v and v in members:
                edges.append((u, v))
    edges.sort()
    return (spec.owned, spec.halo, spec.boundary, tuple(edges))


def partition_blob(graph: NetworkGraph, spec: ShardSpec) -> bytes:
    """:func:`partition_parts`, pickled (the cross-process byte blob)."""
    return pickle.dumps(
        partition_parts(graph, spec), protocol=pickle.HIGHEST_PROTOCOL
    )


def _farthest_seeds(
    graph: NetworkGraph, vertices: Sequence[int], count: int, seed: int
) -> List[int]:
    """Greedy farthest-point seeds under hop distance (deterministic).

    The first seed is drawn with ``random.Random(seed)``; each next seed
    maximises the hop distance to the chosen set (unreachable vertices
    count as infinitely far), ties broken by smallest vertex id.
    """
    rng = random.Random(seed)
    seeds = [vertices[rng.randrange(len(vertices))]]
    while len(seeds) < count:
        # Coordinator-side farthest-point seeding is a whole-graph
        # planning sweep, not a verdict ball; the unbounded BFS is
        # intentional and runs once per plan.
        # repro: allow[radius-unproven]
        dist = _multi_source_distances(graph, seeds, cutoff=None)
        best: Optional[int] = None
        best_dist = -1
        for v in vertices:
            d = dist.get(v)
            d = len(vertices) + 1 if d is None else d  # unreachable wins
            if d > best_dist:
                best, best_dist = v, d
        if best is None or best_dist == 0:
            break  # fewer distinct positions than requested shards
        seeds.append(best)
    return seeds


def _multi_source_distances(
    graph: NetworkGraph, sources: Sequence[int], cutoff: Optional[int]
) -> Dict[int, int]:
    """BFS hop distances from a source set, layer-deterministic."""
    dist: Dict[int, int] = {}
    frontier: List[int] = []
    for s in sources:
        if s not in dist:
            dist[s] = 0
            frontier.append(s)
    depth = 0
    while frontier and (cutoff is None or depth < cutoff):
        depth += 1
        next_frontier: List[int] = []
        for u in frontier:
            for v in sorted(graph.neighbors(u)):
                if v not in dist:
                    dist[v] = depth
                    next_frontier.append(v)
        frontier = next_frontier
    return dist


def build_shard_plan(
    graph: NetworkGraph, tau: int, shards: int, seed: int = 0
) -> ShardPlan:
    """Partition ``graph`` into ``shards`` regions with ⌈τ/2⌉-hop halos.

    Regions grow layer-by-layer from greedy farthest-point seeds placed
    in the largest connected component, smallest region first (vertices
    visited in sorted-neighbour order), so region assignment is a pure
    function of ``(graph, tau, shards, seed)`` and sizes stay
    near-balanced.  Vertices unreachable from every seed (disconnected
    remainders) are assigned round-robin in sorted order.  The schedule computed over a plan is identical to
    the unsharded schedule, so the choice of ``seed`` only shapes load
    balance, never results.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    vertices = sorted(graph.vertices())
    if not vertices:
        raise ValueError("cannot shard an empty graph")
    k = halo_radius(tau)
    shards = min(shards, len(vertices))

    # Seed inside the largest component only: under "unreachable wins"
    # farthest-point selection a deployment's stray two-node islands
    # would each capture a whole shard (observed at 10k nodes: owned
    # sizes [7299, 2, 1, 2698]).  Island vertices still get owners via
    # the round-robin leftover pass below.
    giant = max(
        graph.connected_components(), key=lambda comp: (len(comp), -min(comp))
    )
    pool = sorted(giant)
    shards = min(shards, len(pool))
    seeds = _farthest_seeds(graph, pool, shards, seed)
    shards = len(seeds)
    owner: Dict[int, int] = {}
    frontiers: List[List[int]] = []
    sizes: List[int] = []
    for index, s in enumerate(seeds):
        owner[s] = index
        frontiers.append([s])
        sizes.append(1)
    # Size-balanced growth: each step the smallest live region (ties:
    # lowest shard index — a fixed, documented tie-break) claims one BFS
    # layer.  Plain hop-Voronoi growth lets a central seed dominate
    # (observed at 10k nodes: owned sizes [6409, 1238, 1180, 1173]);
    # growing the laggard first keeps regions near-equal wherever the
    # graph allows while still claiming every vertex exactly once.
    while True:
        live = [index for index in range(shards) if frontiers[index]]
        if not live:
            break
        index = min(live, key=lambda i: (sizes[i], i))
        next_frontier: List[int] = []
        for u in frontiers[index]:
            for v in sorted(graph.neighbors(u)):
                if v not in owner:
                    owner[v] = index
                    next_frontier.append(v)
        sizes[index] += len(next_frontier)
        frontiers[index] = next_frontier
    leftovers = [v for v in vertices if v not in owner]
    for position, v in enumerate(leftovers):
        owner[v] = position % shards

    owned_lists: List[List[int]] = [[] for _ in range(shards)]
    for v in vertices:
        owned_lists[owner[v]].append(v)

    halos: List[Tuple[int, ...]] = []
    subscribers: Dict[int, List[int]] = {}
    for index in range(shards):
        dist = _multi_source_distances(graph, owned_lists[index], cutoff=k)
        halo = tuple(
            sorted(v for v in dist if owner[v] != index)
        )
        halos.append(halo)
        for v in halo:
            subscribers.setdefault(v, []).append(index)
    # The loop above appends per-halo in shard index order already, but
    # rebuild defensively so the routing table is sorted and duplicate
    # free no matter how halos were produced.
    subscriber_map: Dict[int, Tuple[int, ...]] = {
        v: tuple(sorted(set(indices))) for v, indices in subscribers.items()
    }

    specs: List[ShardSpec] = []
    for index in range(shards):
        owned = tuple(owned_lists[index])
        boundary = tuple(v for v in owned if v in subscriber_map)
        specs.append(
            ShardSpec(
                index=index, owned=owned, halo=halos[index], boundary=boundary
            )
        )
    return ShardPlan(
        tau=tau,
        halo_radius=k,
        seed=seed,
        specs=tuple(specs),
        owner=owner,
        subscribers=subscriber_map,
    )
