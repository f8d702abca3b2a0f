"""Round-synchronous sharded DCC scheduling.

The coordinator here reproduces :func:`repro.core.scheduler.dcc_schedule`'s
parallel mode *exactly* — same priority draw (one ``rng.shuffle`` per
round over the same candidate order), same winner set, same deletion
order — but computes every verdict and every MIS decision inside region
shards that communicate only boundary-band rows:

1. **Priority broadcast.**  The global draw is restricted per shard to
   its owned candidates and its halo candidates and shipped as rows.
2. **MIS sub-rounds.**  Shards run the wave formulation of the greedy
   MIS (see :mod:`repro.shard.runtime`) with a status barrier per
   sub-round: each wave decides the candidates whose smaller-priority
   competitors are settled, testing deletability only for owned
   candidates whose verdict is due — a boundary candidate is tested by
   exactly one shard, and boundary-band WINNER/LOSER rows are routed by
   the :class:`~repro.shard.halo.HaloExchange` to subscribers.  The
   fixpoint is the greedy outcome, by induction over the priority
   order.
3. **Batch commit.**  Winners are merged and sorted by global priority —
   exactly the serial append order — deleted from the coordinator's
   graph, and shipped to owners and halo subscribers.

Determinism rules for the cross-shard merges (DESIGN.md section 9):
rows route sources-ascending, shards merge by index, winners sort by
the round's priority draw, and end-of-run counters/spans merge in shard
index order.  Nothing anywhere consumes ``rng`` besides the per-round
shuffle, so sharded and unsharded runs consume the stream identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.network.graph import NetworkGraph
from repro.obs.tracer import current_tracer
from repro.shard.halo import HaloExchange
from repro.shard.plan import ShardPlan, build_shard_plan, partition_parts
# Loaded in the coordinator, so forked shard workers inherit it (and the
# numpy that topology/mis.py imports) instead of importing it mid-schedule.
from repro.shard.runtime import ShardHost
from repro.topology import TopologyCounters


@dataclass
class ShardStats:
    """Per-run sharding account, attached to ``ScheduleResult.shard_stats``."""

    shard_count: int
    halo_radius: int
    owned_sizes: List[int] = field(default_factory=list)
    halo_sizes: List[int] = field(default_factory=list)
    halo_rows_total: int = 0
    halo_bytes_total: int = 0


def _route_traced(tracer, exchange, round_no: int, kind: str, call):
    """Run one exchange call under a ``halo.route`` span.

    The span carries the call's rows/bytes delta read off the exchange's
    round meter — the numbers the attribution analysis consumes.  With
    tracing disabled the call runs bare.
    """
    if not tracer.enabled:
        return call()
    rows0, bytes0 = exchange.round_meter()
    with tracer.trace("halo.route", round=round_no, kind=kind) as handle:
        out = call()
        rows1, bytes1 = exchange.round_meter()
        handle.set(rows=rows1 - rows0, bytes=bytes1 - bytes0)
    return out


def sharded_dcc_schedule(
    graph: NetworkGraph,
    protected: Iterable[int],
    tau: int,
    rng: random.Random,
    shards: int,
    workers: int = 1,
    plan: Optional[ShardPlan] = None,
):
    """Parallel-mode DCC scheduling over region shards.

    Returns the same :class:`~repro.core.scheduler.ScheduleResult` the
    unsharded scheduler would produce for the same ``(graph, protected,
    tau, rng)`` — vertex-identical ``removed`` order, rounds and active
    set — with :class:`ShardStats` attached.  ``workers=1`` hosts every
    shard in-process on one :class:`~repro.shard.runtime.ShardHost`;
    ``workers>1`` (or ``0`` for auto) hosts them in persistent worker
    processes via :class:`~repro.parallel.runner.ShardWorkerPool`.
    ``plan`` overrides the partition (for tests); otherwise one is built
    from ``(graph, tau, shards)`` with plan seed 0.  The run is observed
    by the ambient tracer (:func:`repro.obs.tracer.observe`).
    """
    from repro.core.scheduler import ScheduleResult
    from repro.parallel.runner import (
        ShardWorkerPool,
        chunk_evenly,
        current_chaos,
        resolve_workers,
    )

    tracer = current_tracer()
    if plan is None:
        plan = build_shard_plan(graph, tau, shards)
    elif plan.tau != tau:
        raise ValueError("shard plan was built for a different tau")
    work = graph.copy()
    protected_set = set(protected)
    missing = protected_set - work.vertex_set()
    if missing:
        raise KeyError(f"protected nodes not in graph: {sorted(missing)[:5]}")

    capture = tracer.enabled
    pool_size = min(resolve_workers(workers), plan.shard_count)
    # Lazy, so no partition outlives the host that builds its shard.
    parts = (partition_parts(graph, spec) for spec in plan.specs)
    backend = (
        ShardWorkerPool(parts, tau, pool_size, capture=capture)
        if pool_size > 1
        else ShardHost(enumerate(parts), tau, capture)
    )
    exchange = HaloExchange(plan.subscribers)
    if capture:
        # Zero-wall marker span recording the shard-to-worker assignment
        # (contiguous by index, the pool's own chunking) — the attribution
        # analysis reconstructs per-worker critical paths from it.
        assignment = [
            list(chunk)
            for chunk in chunk_evenly(list(range(plan.shard_count)), pool_size)
        ]
        tracer.add_span(
            "shard.config",
            0.0,
            shards=plan.shard_count,
            workers=pool_size,
            assignment=assignment,
        )
    member_sets = plan.member_sets()
    owner = plan.owner
    subscribers = plan.subscribers
    stats = ShardStats(
        shard_count=plan.shard_count,
        halo_radius=plan.halo_radius,
        owned_sizes=[len(spec.owned) for spec in plan.specs],
        halo_sizes=[len(spec.halo) for spec in plan.specs],
    )

    removed: List[int] = []
    deletions_per_round: List[int] = []
    round_no = 0
    pending: Dict[int, List[int]] = {}
    try:
        while True:
            with tracer.trace("scheduler.round", round=round_no, mode="sharded"):
                with tracer.trace(
                    "scheduler.candidates", round=round_no
                ) as discovery:
                    order = [
                        v for v in work.vertices() if v not in protected_set
                    ]
                    rng.shuffle(order)
                    discovery.set(candidates=len(order))
                    prio = {v: position for position, v in enumerate(order)}
                    owned_rows: List[list] = [
                        [] for __ in range(plan.shard_count)
                    ]
                    halo_rows: List[list] = [
                        [] for __ in range(plan.shard_count)
                    ]
                    for v in order:
                        row = (v, prio[v])
                        owned_rows[owner[v]].append(row)
                        for target in subscribers.get(v, ()):
                            halo_rows[target].append(row)
                    _route_traced(
                        tracer,
                        exchange,
                        round_no,
                        "priority",
                        lambda: exchange.account_broadcast(
                            {
                                index: rows
                                for index, rows in enumerate(halo_rows)
                                if rows
                            }
                        ),
                    )
                    # The previous round's committed deletions ride the
                    # begin message (one roundtrip instead of two), and
                    # the reply already carries the first sub-round.
                    # The barrier span times the coordinator-side wait on
                    # the backend; subtracting the shards' own busy spans
                    # from it is what isolates barrier wait.
                    with tracer.trace(
                        "shard.barrier", round=round_no, subround=0
                    ):
                        results = backend.begin_round(
                            {
                                index: (
                                    pending.get(index),
                                    owned_rows[index],
                                    halo_rows[index],
                                )
                                for index in range(plan.shard_count)
                            }
                        )
                    pending = {}
                with tracer.trace(
                    "scheduler.mis_draw", round=round_no
                ) as draw:
                    winners: List[int] = []
                    subrounds = 0
                    while True:
                        subrounds += 1
                        statuses: Dict[int, list] = {}
                        undecided_total = 0
                        for index in sorted(results):
                            won, exported_rows, undecided = results[index]
                            winners.extend(won)
                            if exported_rows:
                                statuses[index] = exported_rows
                            undecided_total += undecided
                        if undecided_total == 0:
                            break
                        chaos = current_chaos()
                        if chaos is not None and statuses:
                            # Adversarial insertion order into the
                            # exchange: route() sorts sources ascending,
                            # so deliveries must not depend on it.
                            statuses = {
                                index: statuses[index]
                                for index in chaos.permuted(statuses)
                            }
                        # Foreign statuses piggyback on the next request:
                        # one roundtrip per barrier instead of two.
                        deliveries = _route_traced(
                            tracer,
                            exchange,
                            round_no,
                            "status",
                            lambda rows=statuses: exchange.route(rows),
                        )
                        with tracer.trace(
                            "shard.barrier",
                            round=round_no,
                            subround=subrounds,
                        ):
                            results = backend.mis_subround(deliveries)
                    batch = sorted(winners, key=prio.__getitem__)
                    draw.set(winners=len(batch), subrounds=subrounds)
                if not batch:
                    exchange.end_round()
                    break
                with tracer.trace(
                    "scheduler.deletion", round=round_no, deletions=len(batch)
                ):
                    for v in batch:
                        work.remove_vertex(v)
                        removed.append(v)
                    _route_traced(
                        tracer,
                        exchange,
                        round_no,
                        "deletion",
                        lambda rows=batch: exchange.route_deletions(rows),
                    )
                    pending = {
                        index: [v for v in batch if v in member_sets[index]]
                        for index in range(plan.shard_count)
                    }
                deletions_per_round.append(len(batch))
            exchange.end_round()
            round_no += 1
        accounts = backend.finish()
    finally:
        backend.close()

    counters = TopologyCounters()
    for index in sorted(accounts):
        snapshot, spans_payload = accounts[index]
        counters.merge(TopologyCounters(**snapshot))
        if spans_payload is not None:
            # v2 payloads align on the exporter's epoch: the shard's
            # spans land at their true positions on the coordinator
            # timeline (tagged proc=shardN), not at merge time; the
            # merge span itself times only the import.
            with tracer.trace("shard.merge", shard=index):
                tracer.import_spans(spans_payload)

    stats.halo_rows_total = exchange.rows_total
    stats.halo_bytes_total = exchange.bytes_total

    return ScheduleResult(
        active=work,
        removed=removed,
        tau=tau,
        rounds=len(deletions_per_round),
        deletions_per_round=deletions_per_round,
        counters=counters,
        shard_stats=stats,
    )
