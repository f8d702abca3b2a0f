"""Round-synchronous halo exchange between shards.

The coordinator is the only party that knows the routing tables; shards
are built from their own partition parts and never see the plan.
Everything a shard learns about the outside world arrives as *rows* — plain
``(vertex, payload)`` tuples — and only for vertices inside its halo
band:

* **priority rows** at round start (the global MIS priority draw,
  restricted to the shard's halo candidates),
* **verdict rows** after the eager deletability pass (a halo
  candidate's verdict is computed once, by its owner, and shipped),
* **status rows** after each MIS sub-round (boundary-band WINNER /
  LOSER decisions), and
* **deletion rows** after the round's batch commits (halo members
  deleted by their owners).

:class:`HaloExchange` routes owner-exported rows to subscriber shards
and accounts for the traffic — rows and (pickled) bytes per round —
which is the number the scaling story is about: interior state never
crosses a shard boundary, so traffic is proportional to the boundary
band, not the deployment.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Iterable, List, Tuple


class HaloExchange:
    """Route boundary-band rows between shards and meter the traffic."""

    def __init__(self, subscribers: Dict[int, Tuple[int, ...]]) -> None:
        self._subscribers = subscribers
        self.rows_total = 0
        self.bytes_total = 0
        self._round_rows = 0
        self._round_bytes = 0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(
        self, exported: Dict[int, List[Tuple[int, Any]]]
    ) -> Dict[int, List[Tuple[int, Any]]]:
        """Fan owner-exported rows out to each vertex's subscribers.

        ``exported`` maps source shard -> rows for its boundary-band
        vertices.  Delivery order is deterministic: sources ascending,
        rows in export order.  A vertex's owner never receives its own
        row back.
        """
        deliveries: Dict[int, List[Tuple[int, Any]]] = {}
        for source in sorted(exported):
            for row in exported[source]:
                for target in self._subscribers.get(row[0], ()):
                    if target != source:
                        deliveries.setdefault(target, []).append(row)
        self._account(deliveries)
        return deliveries

    def route_deletions(self, batch: Iterable[int]) -> Dict[int, List[int]]:
        """Subscriber deliveries for a committed deletion batch.

        Owners apply their own deletions locally (not halo traffic);
        every subscriber holding the vertex in its halo gets a row.
        """
        deliveries: Dict[int, List[int]] = {}
        for v in batch:
            for target in self._subscribers.get(v, ()):
                deliveries.setdefault(target, []).append(v)
        self._account(deliveries)
        return deliveries

    def account_broadcast(
        self, rows_by_shard: Dict[int, List[Tuple[int, Any]]]
    ) -> None:
        """Meter coordinator-to-shard halo rows (the priority band)."""
        self._account(rows_by_shard)

    def _account(self, deliveries: Dict[int, List[Any]]) -> None:
        for target in sorted(deliveries):
            rows = deliveries[target]
            if not rows:
                continue
            self._round_rows += len(rows)
            self._round_bytes += len(
                pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
            )

    # ------------------------------------------------------------------
    # Round accounting
    # ------------------------------------------------------------------
    def round_meter(self) -> Tuple[int, int]:
        """The open round's ``(rows, bytes)`` so far.

        Reading the meter before and after one routing call yields that
        call's traffic delta — how the coordinator's ``halo.route`` spans
        get their ``rows``/``bytes`` attributes without a second
        accounting pass.
        """
        return self._round_rows, self._round_bytes

    def end_round(self) -> Tuple[int, int]:
        """Close the current round's meter; returns ``(rows, bytes)``."""
        rows, nbytes = self._round_rows, self._round_bytes
        self.rows_total += rows
        self.bytes_total += nbytes
        self._round_rows = 0
        self._round_bytes = 0
        return rows, nbytes
