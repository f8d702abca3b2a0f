"""Accounting for distributed executions: rounds, messages, bytes-ish."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.topology import TopologyCounters


@dataclass
class RuntimeStats:
    """Counters accumulated by the round-based simulator."""

    rounds: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_by_kind: Dict[str, int] = field(default_factory=dict)
    #: delivered messages a protocol phase received but did not handle
    #: (e.g. a non-DELETE kind arriving during the deletion flood),
    #: partitioned by kind.  Handler totality requires every
    #: kind-filtered inbox loop to account for what it skips here
    #: (guarded by ``test_runtime.py``'s stray-message tests).
    messages_dropped: Dict[str, int] = field(default_factory=dict)
    deletion_iterations: int = 0
    #: aggregated local-topology work across every node's engine
    topology: TopologyCounters = field(default_factory=TopologyCounters)

    def record_send(self, kind: str, deliveries: int, count: int = 1) -> None:
        """Account for ``count`` local broadcasts of one message kind.

        Sent-vs-delivered semantics: ``messages_sent`` counts *radio
        broadcasts* (one per transmitted message, regardless of how many
        neighbours hear it), while ``messages_delivered`` counts
        *receptions* (one per listening neighbour).  A broadcast to an
        empty neighbourhood is still sent, just never delivered.
        ``messages_by_kind`` partitions the sent count.
        """
        self.messages_sent += count
        self.messages_delivered += deliveries
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + count

    def record_drop(self, kind: str, count: int = 1) -> None:
        """Account for ``count`` delivered-but-unhandled messages.

        A phase that filters its inbox by kind must route every skipped
        message through here, so "silently discarded" is an accounting
        state rather than an invisible one.
        """
        self.messages_dropped[kind] = (
            self.messages_dropped.get(kind, 0) + count
        )

    def merge(self, other: "RuntimeStats") -> None:
        self.rounds += other.rounds
        self.messages_sent += other.messages_sent
        self.messages_delivered += other.messages_delivered
        self.deletion_iterations += other.deletion_iterations
        for kind, count in other.messages_by_kind.items():
            self.messages_by_kind[kind] = (
                self.messages_by_kind.get(kind, 0) + count
            )
        for kind, count in other.messages_dropped.items():
            self.messages_dropped[kind] = (
                self.messages_dropped.get(kind, 0) + count
            )
        self.topology.merge(other.topology)

    def summary(self) -> str:
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.messages_by_kind.items())
        )
        # An empty kind breakdown used to render as a bare "[]"; omit it.
        breakdown = f" [{kinds}]" if kinds else ""
        drops = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(self.messages_dropped.items())
            if count
        )
        dropped = f" dropped[{drops}]" if drops else ""
        return (
            f"rounds={self.rounds} sent={self.messages_sent} "
            f"delivered={self.messages_delivered}{breakdown}{dropped} | "
            f"{self.topology.summary()}"
        )
