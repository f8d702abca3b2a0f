"""The DCC scheduler: maximal vertex deletion for sparse coverage sets.

Given the connectivity graph, the protected boundary nodes and a confine
size ``tau``, the scheduler repeatedly deletes internal vertices that pass
the void-preserving test (Definition 5) until none remains deletable.
Each round is the paper's (Section V-B): an m-hop MIS
(``m = ceil(tau/2) + 1``) of the deletable internal nodes is selected at
random, and all MIS members delete themselves simultaneously.  Nodes at
pairwise distance >= m have disjoint deletion neighbourhoods, so the
round is equivalent to some sequential order.  The MIS is drawn lazily:
vertices are visited in a random priority order, and a vertex already
inside a winner's separation ball is skipped *without* the expensive
deletability test (it cannot join the MIS regardless).  The induced order
on the deletable set is still a uniform permutation, so the winner-set
distribution matches the eager draw exactly.

All local-topology work (k-ball extraction, deletability verdicts, MIS
separation balls) runs through a :class:`repro.topology.LocalTopologyEngine`,
which caches verdicts and evicts only those within k hops of each deletion.
The engine's instrumentation counters ride on :class:`ScheduleResult`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set

from repro.core.criterion import VertexCycle, is_tau_partitionable
from repro.network.graph import NetworkGraph
from repro.topology import LocalTopologyEngine, TopologyCounters, mis_separation


@dataclass
class ScheduleResult:
    """Outcome of a DCC scheduling run."""

    active: NetworkGraph
    removed: List[int]
    tau: int
    rounds: int
    deletions_per_round: List[int] = field(default_factory=list)
    counters: Optional[TopologyCounters] = None
    #: sharding account (:class:`repro.shard.scheduler.ShardStats`),
    #: ``None`` for unsharded runs.
    shard_stats: Optional[object] = None

    @property
    def coverage_set(self) -> Set[int]:
        return self.active.vertex_set()

    @property
    def num_active(self) -> int:
        return len(self.active)

    @property
    def num_removed(self) -> int:
        return len(self.removed)


def dcc_schedule(
    graph: NetworkGraph,
    protected: Iterable[int],
    tau: int,
    rng: Optional[random.Random] = None,
    seed: int = 0,
    workers: Optional[int] = 1,
    shards: Optional[int] = None,
) -> ScheduleResult:
    """Compute a sparse tau-confine coverage set by maximal vertex deletion.

    ``protected`` nodes (boundary nodes and any cone apexes) are never
    deleted.  The returned :class:`ScheduleResult` holds the reduced graph;
    by Theorem 5 its boundary is still tau-partitionable whenever the input
    boundary was, and by Theorem 6 the set is non-redundant when the input
    graph's irreducible cycles are bounded by ``tau``.

    Runs are reproducible by default: without an explicit ``rng`` the
    scheduler uses ``random.Random(seed)`` (``seed=0``).  The schedule is
    a function of the seed and of ``graph.vertices()``, the order the
    vertices were inserted in, which each round shuffles: the same graph
    built with its vertices in another order gives another schedule.  The
    order its edges were added in does not matter, and neither do the
    label values under an order-preserving relabelling.  ``graph`` is
    never mutated.

    ``shards`` partitions the deployment into halo-exchange region
    shards (see :mod:`repro.shard`) and runs the round-synchronous
    sharded coordinator instead of the monolithic loop; the schedule is
    vertex-identical either way.  ``workers`` counts persistent shard
    workers (``1`` hosts every shard in-process, ``0``/``None``
    auto-detects) and is only meaningful with ``shards=``: an unsharded
    run is always a single in-process loop, so any ``workers`` other
    than ``1`` without ``shards=`` raises :class:`ValueError`.

    The run is observed by the ambient tracer
    (:func:`repro.obs.tracer.observe`); an untraced run pays only the
    null-tracer guards.  When traced, every round records a
    ``scheduler.round`` span with nested candidate-discovery, MIS-draw
    and deletion phases; the round span carries the round's
    :class:`TopologyCounters` delta as attributes, which the run-report
    sums into its ``topology.*`` metrics.
    """
    rng = rng if rng is not None else random.Random(seed)
    if shards is None and workers != 1:
        raise ValueError(
            f"workers={workers!r} needs shards=: unsharded schedules run "
            "in-process (pass shards=N to schedule on N region shards)"
        )
    if shards is not None:
        from repro.shard.scheduler import sharded_dcc_schedule

        return sharded_dcc_schedule(
            graph,
            protected,
            tau,
            rng,
            shards,
            workers=workers if workers is not None else 0,
        )
    engine = LocalTopologyEngine(graph.copy(), tau)
    work = engine.graph
    protected_set = set(protected)
    missing = protected_set - work.vertex_set()
    if missing:
        raise KeyError(f"protected nodes not in graph: {sorted(missing)[:5]}")
    return _dcc_schedule_rounds(engine, work, protected_set, tau, rng)


def _dcc_schedule_rounds(
    engine: LocalTopologyEngine,
    work: NetworkGraph,
    protected_set: Set[int],
    tau: int,
    rng: random.Random,
) -> ScheduleResult:
    tracer = engine.tracer
    counters = engine.counters
    removed: List[int] = []
    deletions_per_round: List[int] = []
    separation = mis_separation(tau)
    round_no = 0

    while True:
        with tracer.trace(
            "scheduler.round", round=round_no, mode="parallel"
        ) as round_span:
            if tracer.enabled:
                before = counters.as_dict()
            # Lazy MIS: one random priority order over the internal
            # vertices; a vertex blocked by an earlier winner skips the
            # deletability test entirely.  A blocked vertex can never be
            # selected and never blocks anyone else, so the winners are
            # exactly the greedy MIS over the induced (uniform) order on
            # the deletable set — the eager candidates-then-MIS draw's
            # distribution, minus its wasted span tests.  Blocking is
            # marked from the winner's side: hop distance is symmetric,
            # so ``v`` lies in some winner's separation ball iff a winner
            # lies in ``v``'s — one ball extraction per *winner* (and an
            # O(1) membership probe per candidate) instead of one BFS per
            # candidate.
            with tracer.trace("scheduler.candidates", round=round_no) as discovery:
                order = [v for v in work.vertices() if v not in protected_set]
                rng.shuffle(order)
                discovery.set(candidates=len(order))
            with tracer.trace("scheduler.mis_draw", round=round_no) as draw:
                blocked: Set[int] = set()
                batch = []
                for v in order:
                    if v in blocked:
                        continue
                    if engine.deletable(v):
                        batch.append(v)
                        blocked |= engine.ball(v, separation - 1)
                draw.set(winners=len(batch))
            if batch:
                with tracer.trace(
                    "scheduler.deletion", round=round_no, deletions=len(batch)
                ):
                    for v in batch:
                        engine.delete_vertex(v)
                        removed.append(v)
            if tracer.enabled:
                # The round's engine work, for the run-report's
                # ``topology.*`` counters.
                after = counters.as_dict()
                round_span.set(**{k: after[k] - before[k] for k in after})
        if not batch:
            break
        deletions_per_round.append(len(batch))
        round_no += 1

    return ScheduleResult(
        active=work,
        removed=removed,
        tau=tau,
        rounds=len(deletions_per_round),
        deletions_per_round=deletions_per_round,
        counters=engine.counters,
    )


def is_non_redundant(
    graph: NetworkGraph,
    boundary_cycles: Sequence[VertexCycle],
    tau: int,
    protected: Iterable[int],
) -> bool:
    """Oracle of Theorem 6: no single internal node can be spared.

    Checks Definition 6 (non-redundancy) directly, the property Theorem 6
    promises for the scheduler's output.  ``graph`` should be the
    *reduced* graph returned by the scheduler.  The check recomputes the
    global criterion once per internal node, so use it on small graphs.
    A boundary vertex can never be spared: deleting it removes the
    boundary itself.
    """
    keep = set(protected).union(*boundary_cycles)
    if not is_tau_partitionable(graph, boundary_cycles, tau):
        return False
    for v in graph.vertices():
        if v in keep:
            continue
        thinner = graph.copy()
        thinner.remove_vertex(v)
        if is_tau_partitionable(thinner, boundary_cycles, tau):
            return False
    return True
