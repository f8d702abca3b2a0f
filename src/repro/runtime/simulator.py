"""A synchronous round-based message-passing network simulator.

Nodes communicate by local broadcast only: anything a node sends in round
``t`` is delivered to all of its currently-active neighbours at the start
of round ``t + 1``.  The simulator knows nothing about the protocol; it
moves messages and counts them.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Set

from repro.network.graph import NetworkGraph
from repro.obs.tracer import current_tracer
from repro.runtime.messages import Message
from repro.runtime.stats import RuntimeStats


class Simulator:
    """Synchronous broadcast rounds over a (mutable) topology.

    Observed by the ambient tracer captured at construction
    (:func:`repro.obs.tracer.observe`).  When tracing, every
    :meth:`step` records a ``runtime.round`` span carrying the round's
    broadcast and delivery counts, deterministic at a fixed seed; the
    run-report turns them into the ``runtime.messages_per_round`` and
    ``runtime.delivered_per_round`` histograms.
    """

    def __init__(self, graph: NetworkGraph) -> None:
        self.graph = graph.copy()
        self.active: Set[int] = graph.vertex_set()
        self.inboxes: Dict[int, List[Message]] = defaultdict(list)
        self.outboxes: Dict[int, List[Message]] = defaultdict(list)
        self.stats = RuntimeStats()
        self.tracer = current_tracer()

    def send(self, message: Message) -> None:
        """Queue a local broadcast for delivery next round."""
        self.outboxes[message.src].append(message)

    def deactivate(self, node: int) -> None:
        """Remove a node from the running network (it stops relaying)."""
        self.active.discard(node)
        if node in self.graph:
            self.graph.remove_vertex(node)
        self.inboxes.pop(node, None)
        self.outboxes.pop(node, None)

    def step(self) -> int:
        """Deliver all queued messages; returns the number delivered."""
        tracer = self.tracer
        start = perf_counter() if tracer.enabled else 0.0
        self.stats.rounds += 1
        round_no = self.stats.rounds
        broadcasts = 0
        delivered = 0
        new_inboxes: Dict[int, List[Message]] = defaultdict(list)
        for src, queue in self.outboxes.items():
            if src not in self.active:
                continue
            neighbors = [
                v for v in sorted(self.graph.neighbors(src)) if v in self.active
            ]
            for message in queue:
                self.stats.record_send(message.kind.value, len(neighbors))
                broadcasts += 1
                for v in neighbors:
                    new_inboxes[v].append(message)
                    delivered += 1
        self.outboxes = defaultdict(list)
        self.inboxes = new_inboxes
        if tracer.enabled:
            tracer.add_span(
                "runtime.round",
                perf_counter() - start,
                round=round_no,
                messages=broadcasts,
                delivered=delivered,
            )
        return delivered

    def inbox(self, node: int) -> List[Message]:
        return self.inboxes.get(node, [])

    def run_phase(self, handlers, rounds: int) -> None:
        """Run ``rounds`` synchronous rounds of per-node handlers.

        ``handlers`` maps node id to a callable ``f(node, inbox, send)``
        invoked once per round for every active node.
        """
        for __ in range(rounds):
            for node in sorted(self.active):
                handler = handlers.get(node)
                if handler is None:
                    continue
                handler(node, self.inbox(node), self.send)
            self.step()
