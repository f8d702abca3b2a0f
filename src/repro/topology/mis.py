"""Label-propagation MIS waves over a frozen CSR snapshot.

The scheduler's greedy random-priority MIS admits a *wave* formulation:
a candidate is decided the moment every smaller-priority candidate
within the separation radius is decided — it loses if one of them won,
and is ready to take its deletability test otherwise.  Both conditions
are radius-bounded minima over the candidate priorities:

* ``win_min(v)``  — smallest priority of a *winner* within ``k`` hops;
  ``win_min(v) < prio(v)`` blocks ``v`` (the lazy scan's ``blocked``
  set, without materialising a single separation ball).
* ``und_min(v)``  — smallest priority of an *undecided* candidate
  within ``k`` hops; ``und_min(v) == prio(v)`` means ``v`` is the local
  priority minimum, so its test outcome can no longer be affected.

:class:`WaveMIS` computes both with ``k`` passes of a min-label
propagation over a flat copy of the kernel's live adjacency (closed
neighbourhood per pass; the copy is taken at construction, when the
round's deletions have already unlinked dead slots, so labels can never
relay through a deleted vertex).  Statuses are monotone — undecided ->
winner/loser, never back — so any interleaving of wave steps converges
to the same fixpoint: the greedy MIS of the priority order.  Its
consumer is the shard runtime (:mod:`repro.shard.runtime`): each shard
runs steps per sub-round against the statuses known at the barrier,
tests only its *owned* testable candidates, and learns foreign
decisions through :meth:`WaveMIS.apply_row` — the tested set per round
is provably the serial lazy scan's (no eager redundant verdicts), and
the winners are the lazy scan's exactly.

Snapshot semantics: a step decides against the statuses frozen at its
entry, exactly the shard barrier's contract.  Without numpy the
propagation runs in pure Python over the same live adjacency lists —
same answers, test-scale speed.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple

try:  # pragma: no cover - exercised by the import-time environment
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

#: MIS statuses; plain ints so status rows pickle small.  The shard
#: protocol ships them across processes, so they are defined here, at
#: the lowest layer that understands them.
UNDECIDED, WINNER, LOSER = 0, 1, 2

#: Priority sentinel: larger than any real priority index.
_INF = (1 << 62)


class WaveMIS:
    """Greedy random-priority MIS as radius-k label-propagation waves.

    Parameters
    ----------
    kernel:
        The :class:`~repro.cycles.kernel.CSRGraph` snapshot the round
        runs against.  The graph must stay frozen for the object's
        lifetime (one scheduling round) — deletions happen between
        rounds.
    rows:
        ``(vertex id, priority)`` pairs for every candidate this view
        knows (for a shard: owned and halo candidates).  Priorities are
        globally unique per round.
    radius:
        The separation radius ``k`` (``deletion_radius(tau)``): two MIS
        members must sit more than ``k`` hops apart.
    owned:
        Optional id filter: :meth:`step` only reports *testable*
        candidates from this set (a shard may only test what it owns).
        Blocked decisions still apply to every candidate — they are
        facts about already-exported winners, identical in every view.
    """

    def __init__(
        self,
        kernel,
        rows: Iterable[Tuple[int, int]],
        radius: int,
        owned: Optional[frozenset] = None,
    ) -> None:
        self._kernel = kernel
        self._radius = radius
        self._prio: Dict[int, int] = dict(rows)
        self._status: Dict[int, int] = {v: UNDECIDED for v in self._prio}
        self._owned = owned
        index = kernel.index
        self._slot_of = {v: index[v] for v in self._prio}
        self._winners: List[int] = []
        self._open = len(self._prio)
        self._open_owned = (
            self._open
            if owned is None
            else sum(1 for v in self._prio if v in owned)
        )
        if np is not None:
            self._init_arrays(kernel)

    def _init_arrays(self, kernel) -> None:
        """Freeze the live adjacency and the candidate masks as arrays.

        The flat copy is taken *after* the previous round's deletions,
        so dead slots appear only as empty segments: they have no
        incoming edges, their labels stay at the sentinel, and nothing
        ever relays through them — no per-pass masking required.
        """
        adj = kernel.adj
        nslots = len(adj)
        degrees = np.fromiter(map(len, adj), np.int64, count=nslots)
        indptr = np.zeros(nslots + 1, np.int64)
        np.cumsum(degrees, out=indptr[1:])
        size = int(indptr[-1])
        self._flat = np.fromiter(chain.from_iterable(adj), np.int64, count=size)
        # reduceat boundaries over the non-empty segments only: their
        # consecutive starts are exact segment borders (empty segments
        # contribute no elements between them), and the last one runs to
        # the end of ``flat`` — no index clipping, which would silently
        # truncate the final segment when trailing slots are dead.
        self._nonempty = np.flatnonzero(degrees > 0)
        self._starts = indptr[:-1][self._nonempty]
        self._prio_arr = np.full(nslots, _INF, dtype=np.int64)
        for v, slot in self._slot_of.items():
            self._prio_arr[slot] = self._prio[v]
        self._undecided = np.zeros(nslots, dtype=bool)
        self._undecided[list(self._slot_of.values())] = True
        self._winner_mask = np.zeros(nslots, dtype=bool)
        if self._owned is not None:
            self._owned_mask = np.zeros(nslots, dtype=bool)
            self._owned_mask[
                [self._slot_of[v] for v in self._prio if v in self._owned]
            ] = True
        else:
            self._owned_mask = None

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self, labels):
        """``radius`` closed-neighbourhood min passes over one array."""
        flat = self._flat
        if len(flat) == 0:
            return labels
        starts = self._starts
        nonempty = self._nonempty
        for _ in range(self._radius):
            reduced = np.minimum.reduceat(labels[flat], starts)
            np.minimum(labels[nonempty], reduced, out=reduced)
            labels[nonempty] = reduced
        return labels

    def _propagate_python(self):
        """Pure-Python twin of :meth:`_propagate` (numpy missing).

        Walks the kernel's live adjacency lists directly, carrying
        undecided-min and winner-min labels in dicts keyed by slot.
        """
        adj = self._kernel.adj
        status = self._status
        prio = self._prio
        und: Dict[int, int] = {}
        win: Dict[int, int] = {}
        for v, slot in self._slot_of.items():
            state = status[v]
            if state == UNDECIDED:
                und[slot] = prio[v]
            elif state == WINNER:
                win[slot] = prio[v]
        for labels in (und, win):
            for _ in range(self._radius):
                frontier = dict(labels)
                for slot, value in labels.items():
                    for other in adj[slot]:
                        if frontier.get(other, _INF) > value:
                            frontier[other] = value
                labels.clear()
                labels.update(frontier)
        return und, win

    # ------------------------------------------------------------------
    # Wave steps
    # ------------------------------------------------------------------
    def step(self) -> Tuple[List[int], List[int]]:
        """One snapshot-semantics wave against the current statuses.

        Returns ``(testable, blocked)``, both priority-ascending vertex
        id lists: ``blocked`` are candidates newly decided as losers (a
        smaller-priority winner sits within the radius — already
        applied), ``testable`` are candidates whose verdict is now due
        (report their outcomes through :meth:`record_verdict`).  With
        an ``owned`` filter, ``testable`` is restricted to owned
        candidates; ``blocked`` is not.  An empty step (``[], []``)
        with undecided candidates remaining means this view is waiting
        on foreign decisions — only possible under an ``owned`` filter.
        """
        if self._open_owned == 0:
            # Nothing left that this view may decide or test: foreign
            # stragglers (halo candidates) resolve through their owners.
            return [], []
        if np is None:
            return self._step_python()
        prio_arr = self._prio_arr
        undecided = self._undecided
        und_min = np.where(undecided, prio_arr, _INF)
        self._propagate(und_min)
        if self._winners:
            win_min = np.where(self._winner_mask, prio_arr, _INF)
            self._propagate(win_min)
            blocked_mask = undecided & (win_min < prio_arr)
        else:
            blocked_mask = np.zeros_like(undecided)
        testable_mask = undecided & ~blocked_mask & (und_min == prio_arr)
        if self._owned_mask is not None:
            testable_mask &= self._owned_mask
        ids = self._kernel.ids
        blocked = [ids[slot] for slot in np.flatnonzero(blocked_mask)]
        testable = [ids[slot] for slot in np.flatnonzero(testable_mask)]
        prio = self._prio
        blocked.sort(key=prio.__getitem__)
        testable.sort(key=prio.__getitem__)
        self._decide_losers(blocked)
        undecided[blocked_mask] = False
        return testable, blocked

    def _step_python(self) -> Tuple[List[int], List[int]]:
        und, win = self._propagate_python()
        prio = self._prio
        status = self._status
        owned = self._owned
        blocked: List[int] = []
        testable: List[int] = []
        for v, slot in self._slot_of.items():
            if status[v] != UNDECIDED:
                continue
            mine = prio[v]
            if win.get(slot, _INF) < mine:
                blocked.append(v)
            elif und.get(slot, _INF) == mine and (owned is None or v in owned):
                testable.append(v)
        blocked.sort(key=prio.__getitem__)
        testable.sort(key=prio.__getitem__)
        self._decide_losers(blocked)
        return testable, blocked

    def _decide_losers(self, blocked: List[int]) -> None:
        status = self._status
        for v in blocked:
            status[v] = LOSER
        self._open -= len(blocked)
        owned = self._owned
        if owned is None:
            self._open_owned = self._open
        else:
            self._open_owned -= sum(1 for v in blocked if v in owned)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def record_verdict(self, v: int, deletable: bool) -> None:
        """Apply a tested candidate's outcome (winner iff deletable)."""
        self._set(v, WINNER if deletable else LOSER)

    def apply_row(self, v: int, status: int) -> None:
        """Apply a foreign decision (shard status row); idempotent."""
        if status != UNDECIDED and self._status.get(v) == UNDECIDED:
            self._set(v, status)

    def _set(self, v: int, status: int) -> None:
        self._status[v] = status
        self._open -= 1
        if self._owned is None or v in self._owned:
            self._open_owned -= 1
        if status == WINNER:
            self._winners.append(v)
        if np is not None:
            slot = self._slot_of[v]
            self._undecided[slot] = False
            if status == WINNER:
                self._winner_mask[slot] = True

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def undecided_count(self) -> int:
        """Open candidates (owned ones only, under an ``owned`` filter)."""
        return self._open_owned

    def status_of(self, v: int) -> int:
        return self._status[v]
