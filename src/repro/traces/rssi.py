"""RSSI trace records and their aggregation into a connectivity graph.

Mirrors the paper's GreenOrbs pipeline (Section VI-B): nodes periodically
emit packets carrying the (at most ten) neighbours with the best received
signal strength at that moment; records are accumulated over a time window
into per-directed-edge average RSSI; directed edges are dropped and an
undirected edge is kept when its average RSSI clears a threshold chosen to
retain a target fraction (the paper uses ~80% at about -85 dBm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.network.graph import NetworkGraph

if TYPE_CHECKING:
    import numpy as np

DirectedEdge = Tuple[int, int]


@dataclass(frozen=True)
class RssiRecord:
    """One neighbour entry of a packet: ``receiver`` heard ``sender``."""

    receiver: int
    sender: int
    rssi_dbm: float


class RssiTrace:
    """An accumulated collection of RSSI records, stored as columns.

    Records live as ``(receiver, sender, rssi)`` array chunks in arrival
    order; :attr:`records` rebuilds :class:`RssiRecord` objects on demand.
    The per-link averages are computed once per set of records and
    reused by :meth:`edge_rssi_values` and :func:`graph_from_trace`.
    """

    def __init__(self, records: Iterable[RssiRecord] = ()) -> None:
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._directed: Optional[Dict[DirectedEdge, float]] = None
        self._undirected: Optional[Dict[Tuple[int, int], float]] = None
        self.extend(records)

    def extend(self, records: Iterable[RssiRecord]) -> None:
        rows = [(r.receiver, r.sender, r.rssi_dbm) for r in records]
        if rows:
            receiver, sender, rssi = zip(*rows)
            self.extend_columns(receiver, sender, rssi)

    def extend_columns(
        self, receiver: Sequence[int], sender: Sequence[int], rssi: Sequence[float]
    ) -> None:
        """Append records given column-wise (equal-length sequences)."""
        import numpy as np

        chunk = (
            np.asarray(receiver, dtype=np.int64),
            np.asarray(sender, dtype=np.int64),
            np.asarray(rssi, dtype=np.float64),
        )
        if not len(chunk[0]) == len(chunk[1]) == len(chunk[2]):
            raise ValueError("record columns differ in length")
        if len(chunk[0]):
            self._chunks.append(chunk)
            self._directed = self._undirected = None

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(receiver, sender, rssi)`` columns in record order."""
        import numpy as np

        if len(self._chunks) > 1:
            self._chunks = [tuple(np.concatenate(c) for c in zip(*self._chunks))]
        if not self._chunks:
            return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
        return self._chunks[0]

    def __len__(self) -> int:
        return sum(len(chunk[0]) for chunk in self._chunks)

    @property
    def records(self) -> List[RssiRecord]:
        """A fresh list of the records, in the order they were added."""
        receiver, sender, rssi = self.columns()
        return [
            RssiRecord(r, s, x)
            for r, s, x in zip(receiver.tolist(), sender.tolist(), rssi.tolist())
        ]

    def _directed_averages(self) -> Dict[DirectedEdge, float]:
        if self._directed is None:
            self._directed = _link_means(*self.columns())
        return self._directed

    def directed_averages(self) -> Dict[DirectedEdge, float]:
        """Average RSSI per directed link (receiver <- sender)."""
        return dict(self._directed_averages())

    def _undirected_averages(self) -> Dict[Tuple[int, int], float]:
        if self._undirected is None:
            directed = self._directed_averages()
            out: Dict[Tuple[int, int], float] = {}
            for (receiver, sender), value in directed.items():
                if receiver < sender:
                    reverse = directed.get((sender, receiver))
                    if reverse is not None:
                        out[(receiver, sender)] = (value + reverse) / 2.0
            self._undirected = out
        return self._undirected

    def undirected_averages(self) -> Dict[Tuple[int, int], float]:
        """Average RSSI per *undirected* link.

        Only links observed in both directions survive (the paper
        "eliminates directed edges"); the undirected average pools both
        directions' records.
        """
        return dict(self._undirected_averages())

    def edge_rssi_values(self) -> List[float]:
        """All undirected average RSSI values (the Figure 5 population)."""
        return sorted(self._undirected_averages().values())


def _link_means(
    receiver: np.ndarray, sender: np.ndarray, rssi: np.ndarray
) -> Dict[DirectedEdge, float]:
    """Per-link mean RSSI, keyed in order of each link's first record.

    Each link's total is summed from 0.0 in record order — ``np.add.at``
    applies its updates in index order — so it is the same float a
    running ``totals[key] += rssi`` over the records gives.

    Records are grouped by a stable sort of one packed ``(receiver,
    sender)`` key: the permutation ``np.lexsort((sender, receiver))``
    gives, at about a third of its cost.  The key fits in int64 while the
    product of the two id ranges does.
    """
    import numpy as np

    if not len(rssi):
        return {}
    low = sender.min()
    key = receiver - receiver.min()
    key *= sender.max() - low + 1
    key += sender
    key -= low
    order = np.argsort(key, kind="stable")
    r_sorted, s_sorted = receiver[order], sender[order]
    new_link = np.empty(len(rssi), dtype=bool)
    new_link[0] = True
    new_link[1:] = (r_sorted[1:] != r_sorted[:-1]) | (s_sorted[1:] != s_sorted[:-1])
    starts = np.flatnonzero(new_link)
    link = np.empty(len(rssi), dtype=np.int64)
    link[order] = np.cumsum(new_link) - 1
    totals = np.zeros(len(starts))
    np.add.at(totals, link, rssi)
    means = totals / np.bincount(link)
    # The stable sort leaves each link's earliest record at its start.
    first = np.argsort(order[starts], kind="stable")
    keys = zip(r_sorted[starts][first].tolist(), s_sorted[starts][first].tolist())
    return dict(zip(keys, means[first].tolist()))


def rssi_cdf(values: Sequence[float], thresholds: Sequence[float]) -> List[float]:
    """Fraction of edges with RSSI >= each threshold (Figure 5's y-axis)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return [0.0 for __ in thresholds]
    out = []
    for threshold in thresholds:
        # count of values >= threshold via binary search
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            if ordered[mid] < threshold:
                lo = mid + 1
            else:
                hi = mid
        out.append((n - lo) / n)
    return out


def threshold_for_fraction(values: Sequence[float], fraction: float) -> float:
    """RSSI threshold keeping the strongest ``fraction`` of edges.

    The paper picks roughly -85 dBm "to utilize 80% of undirected edges".
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(values, reverse=True)
    if not ordered:
        raise ValueError("no RSSI values to threshold")
    index = min(len(ordered) - 1, max(0, int(math.ceil(fraction * len(ordered))) - 1))
    return ordered[index]


def graph_from_trace(
    trace: RssiTrace, threshold_dbm: float
) -> NetworkGraph:
    """The trace topology: undirected links with average RSSI >= threshold."""
    import numpy as np

    graph = NetworkGraph()
    receiver, sender, __ = trace.columns()
    # Receiver and sender interleaved, as the records name them.
    for node in set(np.column_stack((receiver, sender)).ravel().tolist()):
        graph.add_vertex(node)
    for (u, v), rssi in trace._undirected_averages().items():
        if rssi >= threshold_dbm:
            graph.add_edge(u, v)
    return graph
