"""Shard-local state: one partition engine plus MIS round bookkeeping.

This module is the *local* side of the shard abstraction, the analogue
of a per-region process on real hardware.  A :class:`LocalShard` is
constructed from a partition blob (its own owned/halo membership and
induced edges — never the plan or the global graph) and afterwards
communicates exclusively through rows handed to / returned from its
methods.  The REPRO113 lint rule enforces that discipline statically
(no reads of coordinator-scope state), and the partition engine's
``owned`` guard enforces the verdict half dynamically: asking for a
deletability verdict outside the owned region raises
:class:`~repro.topology.OwnedRegionError`.

The MIS the shards compute together is the wave formulation of the
scheduler's greedy draw (:class:`~repro.topology.mis.WaveMIS`): each
sub-round decides, against the statuses frozen at the barrier, every
candidate whose smaller-priority competitors within the separation
radius are all settled — blocked candidates lose without a test, and
the shard runs deletability tests *only* for the owned candidates whose
verdict is actually due.  A boundary candidate is therefore tested by
exactly one shard (its owner), and the union of tests across shards and
sub-rounds equals the serial lazy scan's tested set — the eager
per-round verdict sweep (and its cross-shard redundancy) is gone.
Decisions apply at the barrier, so the fixpoint — and the deletion
schedule — is vertex-identical to the unsharded engine's at the same
priority draw.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.graph import NetworkGraph
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.topology import LocalTopologyEngine
from repro.topology.mis import LOSER, UNDECIDED, WINNER, WaveMIS

StatusRow = Tuple[int, int]  # (vertex, status)
PriorityRow = Tuple[int, int]  # (vertex, priority index)


class LocalShard:
    """One shard's partition engine and per-round MIS state.

    ``source`` is either partition transport, normalised here: a
    pickled blob (:func:`~repro.shard.plan.partition_blob`) or a plain
    parts tuple (:func:`~repro.shard.plan.partition_parts`, the inline
    backend's zero-copy hand-off).
    """

    def __init__(
        self, index: int, tau: int, source, capture: bool = False
    ) -> None:
        self.index = index
        self.tracer = Tracer() if capture else NULL_TRACER
        # Round/sub-round cursors for span attribution: begin_round opens
        # round r and resets the sub-round counter; apply_deletions always
        # precedes the begin it rides with, so its spans belong to r + 1.
        self._round = -1
        self._subround = 0
        if isinstance(source, (bytes, bytearray)):
            source = pickle.loads(source)
        owned, halo, boundary, edges = source
        partition = NetworkGraph(tuple(owned) + tuple(halo))
        for u, v in edges:
            partition.add_edge(u, v)
        self.owned = tuple(owned)
        self.halo = tuple(halo)
        # The CSR mirror assigns slots in sorted-id order, so owned and
        # halo slots interleave; expose them as rank-derived sets.
        rank = {v: i for i, v in enumerate(sorted(self.owned + self.halo))}
        self.owned_slots = frozenset(rank[v] for v in self.owned)
        self.halo_slots = frozenset(rank[v] for v in self.halo)
        self._owned_set = frozenset(self.owned)
        self._boundary = frozenset(boundary)
        self.engine = LocalTopologyEngine(
            partition,
            tau,
            owned=self._owned_set,
            tracer=self.tracer if capture else None,
        )
        self._radius = self.engine.radius
        self._mis: Optional[WaveMIS] = None

    # ------------------------------------------------------------------
    # Round protocol (driven by the coordinator / worker loop)
    # ------------------------------------------------------------------
    def begin_round(
        self,
        owned_rows: Sequence[PriorityRow],
        halo_rows: Sequence[PriorityRow],
    ) -> None:
        """Start a round: freeze the wave-MIS view of this partition.

        ``owned_rows`` / ``halo_rows`` carry the global priority draw
        restricted to this shard's candidates (owned region and halo
        band).  No verdict is computed here — tests happen lazily in
        :meth:`mis_subround`, only for owned candidates whose wave has
        arrived.
        """
        rows = list(owned_rows)
        rows.extend(halo_rows)
        self._round += 1
        self._subround = 0
        self._mis = WaveMIS(
            self.engine.kernel, rows, self._radius, owned=self._owned_set
        )

    def mis_subround(self) -> Tuple[List[int], List[StatusRow], int]:
        """Run MIS waves until this shard needs foreign input.

        Each wave decides, against the statuses at its entry, every
        candidate whose smaller-priority competitors within the
        separation radius are settled: candidates inside a winner's
        radius lose outright, and owned candidates whose verdict is due
        take their deletability test (winner iff deletable).  The
        greedy-MIS fixpoint is monotone, so interior chains may resolve
        locally without waiting for the barrier — the loop steps until
        no further local progress is possible, which happens only when
        every remaining owned candidate waits on a foreign decision.
        Those arrive via :meth:`apply_status` before the next
        sub-round.  Returns ``(winners, exported status rows, owned
        undecided remaining)``.

        When capture is on, the whole sub-round records a
        ``shard.subround`` span (attrs ``shard``/``round``/``subround``)
        — the per-shard busy interval the attribution analysis and the
        multi-lane timeline consume; hot-path tracing stays behind
        ``tracer.enabled`` guards (REPRO114).
        """
        tracer = self.tracer
        subround = self._subround
        self._subround = subround + 1
        if tracer.enabled:
            with tracer.trace(
                "shard.subround",
                shard=self.index,
                round=self._round,
                subround=subround,
            ):
                return self._mis_waves(subround)
        return self._mis_waves(subround)

    def _mis_waves(self, subround: int) -> Tuple[List[int], List[StatusRow], int]:
        mis = self._mis
        boundary = self._boundary
        tracer = self.tracer
        exported: List[StatusRow] = []
        winners: List[int] = []
        while True:
            testable, blocked = mis.step()
            exported.extend((v, LOSER) for v in blocked if v in boundary)
            if testable:
                if tracer.enabled:
                    with tracer.trace(
                        "shard.verdicts",
                        shard=self.index,
                        round=self._round,
                        subround=subround,
                        candidates=len(testable),
                    ):
                        verdicts = self._verdicts_of(testable)
                else:
                    verdicts = self._verdicts_of(testable)
                for v, verdict in zip(testable, verdicts):
                    mis.record_verdict(v, verdict)
                    if verdict:
                        winners.append(v)
                    if v in boundary:
                        exported.append((v, WINNER if verdict else LOSER))
            elif not blocked:
                break
        return winners, exported, mis.undecided_count()

    def _verdicts_of(self, testable: Sequence[int]) -> List[bool]:
        return [self.engine.deletable(v) for v in testable]

    def apply_status(self, rows: Sequence[StatusRow]) -> None:
        """Apply foreign boundary-band decisions (the sub-round barrier)."""
        mis = self._mis
        for v, outcome in rows:
            mis.apply_row(v, outcome)

    def apply_deletions(self, batch: Sequence[int]) -> None:
        """Delete the round's committed batch members held locally.

        ``batch`` preserves the global deletion order restricted to this
        partition, so the engine's dirty-region invalidation sees the
        same mutation sequence the unsharded engine would.
        """
        if self.tracer.enabled:
            # Deletions ride the *next* round's begin message, so the
            # span belongs to the round about to open.
            with self.tracer.trace(
                "shard.apply",
                shard=self.index,
                round=self._round + 1,
                deletions=len(batch),
            ):
                for v in batch:
                    self.engine.delete_vertex(v)
        else:
            for v in batch:
                self.engine.delete_vertex(v)

    # ------------------------------------------------------------------
    # End-of-run accounting
    # ------------------------------------------------------------------
    def counters_snapshot(self) -> Dict[int, int]:
        """The partition engine's counters as a plain dict."""
        return self.engine.counters.as_dict()

    def spans_payload(self):
        """Captured spans as an aligned v2 payload (``None`` if capture off).

        The payload carries this shard's time origin and a
        ``shard{index}`` process label, so the coordinator's
        :meth:`~repro.obs.tracer.Tracer.import_spans` places the spans on
        the shared timeline and stamps each with a ``proc`` attribute.
        """
        if self.tracer is NULL_TRACER:
            return None
        return self.tracer.export_payload(process=f"shard{self.index}")
