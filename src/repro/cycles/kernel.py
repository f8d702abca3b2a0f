"""Flat, array-based span kernel: CSR adjacency + integer BFS + GF(2) span.

The deletability primitive of Definition 5 bottoms out in three loops:
k-ball extraction (BFS), chord numbering (spanning forest), and
tau-capped closure streaming into a GF(2) elimination.  The dict-of-sets
:class:`~repro.network.graph.NetworkGraph` pays hashing and allocation
on every step of all three.  :class:`CSRGraph` is a compact int-indexed
mirror of a ``NetworkGraph`` — vertex ids are mapped onto dense slots,
adjacency rows are flat lists of slot indices, and every traversal runs
over preallocated scratch arrays with token-stamped visitation (no
per-query clearing, no per-vertex hashing).

The mirror is built once and patched incrementally: the mutation methods
(:meth:`delete_vertex` / :meth:`delete_edge` / :meth:`add_edge` /
:meth:`add_vertex`) apply the change to the *base graph and the arrays
together* and keep :attr:`version` in lock-step with the base graph's
mutation counter, so ``NetworkGraph.csr()`` can hand out the same kernel
for the lifetime of an engine.  An out-of-band base mutation is detected
by the version check and answered with a rebuild — correctness never
depends on the caller's discipline.

Everything here is deliberately dependency-free (flat Python lists, not
numpy): the inner loops are index arithmetic plus big-int XOR, which
CPython executes far faster than element-wise numpy calls at the
punctured-neighbourhood sizes the schedulers touch.  The dict-based
implementations remain in place as the reference oracle; the property
suite drives both against each other under random mutation sequences.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import islice
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cycles.gf2 import GF2Basis


class CSRGraph:
    """Compact adjacency mirror of a :class:`NetworkGraph`.

    Slots (dense ints) are assigned to vertex ids in sorted-id order at
    build time, so slot order and id order agree; :attr:`monotone_ids`
    records whether that invariant still holds after mutations (vertices
    added later get fresh slots at the end).  Rows are kept sorted by
    slot, which under the invariant is also sorted by id — the property
    the deterministic shortest-path trees rely on.
    """

    __slots__ = (
        "base",
        "version",
        "ids",
        "index",
        "adj",
        "alive",
        "monotone_ids",
        "tracer",
        "_dist",
        "_stamp",
        "_token",
        "_member_stamp",
        "_member_token",
        "_parent",
        "_acc",
        "__weakref__",
    )

    def __init__(self, base) -> None:
        self.base = base
        # Optional span tracer (duck-typed; deliberately NOT imported from
        # repro.obs — that package renders through viz, which imports the
        # graph module, which imports this one).  ``None`` keeps the hot
        # paths at a single attribute load + identity check.
        self.tracer = None
        ids = sorted(base.vertices())
        self.ids: List[int] = ids
        self.index: Dict[int, int] = {v: i for i, v in enumerate(ids)}
        index = self.index
        self.adj: List[List[int]] = [
            sorted(index[w] for w in base.neighbors(v)) for v in ids
        ]
        self.alive = bytearray([1]) * len(ids) if ids else bytearray()
        self.monotone_ids = True
        n = len(ids)
        # Token-stamped scratch: a cell is valid only when its stamp
        # matches the current token, so traversals never clear arrays.
        self._dist = [0] * n
        self._stamp = [0] * n
        self._token = 0
        self._member_stamp = [0] * n
        self._member_token = 0
        self._parent = [0] * n
        self._acc = [0] * n
        self.version = base.version

    # ------------------------------------------------------------------
    # Incremental mutation (base graph and mirror move together)
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        self._dist.append(0)
        self._stamp.append(0)
        self._member_stamp.append(0)
        self._parent.append(0)
        self._acc.append(0)

    def _slot(self, v: int) -> int:
        """Slot of ``v``, allocating a fresh one for a new vertex."""
        i = self.index.get(v)
        if i is not None:
            return i
        i = len(self.ids)
        if self.ids and v <= self.ids[-1]:
            self.monotone_ids = False
        self.ids.append(v)
        self.index[v] = i
        self.adj.append([])
        self.alive.append(1)
        self._grow()
        return i

    def add_vertex(self, v: int) -> None:
        self._slot(v)
        self.base.add_vertex(v)
        self.version = self.base.version

    def add_edge(self, u: int, v: int) -> None:
        i, j = self._slot(u), self._slot(v)
        self.base.add_edge(u, v)
        if j not in self.adj[i]:
            insort(self.adj[i], j)
            insort(self.adj[j], i)
        self.version = self.base.version

    def delete_edge(self, u: int, v: int) -> None:
        self.base.remove_edge(u, v)  # raises KeyError before we patch
        i, j = self.index[u], self.index[v]
        self.adj[i].remove(j)
        self.adj[j].remove(i)
        self.version = self.base.version

    def delete_vertex(self, v: int):
        """Remove ``v`` from base and mirror; returns former neighbours."""
        nbrs = self.base.remove_vertex(v)
        i = self.index.pop(v)
        for j in self.adj[i]:
            self.adj[j].remove(i)
        self.adj[i] = []
        self.alive[i] = 0
        self.version = self.base.version
        return nbrs

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def bfs_distances(
        self, source: int, cutoff: Optional[int] = None
    ) -> Dict[int, int]:
        """Hop distances keyed by vertex *id* — mirrors the oracle."""
        src = self.index.get(source)
        if src is None:
            raise KeyError(f"vertex {source} not in graph")
        adj = self.adj
        ids = self.ids
        self._token += 1
        token = self._token
        stamp = self._stamp
        dist = self._dist
        stamp[src] = token
        dist[src] = 0
        out = {source: 0}
        frontier = [src]
        d = 0
        while frontier and (cutoff is None or d < cutoff):
            nxt: List[int] = []
            d += 1
            for u in frontier:
                for w in adj[u]:
                    if stamp[w] != token:
                        stamp[w] = token
                        dist[w] = d
                        out[ids[w]] = d
                        nxt.append(w)
            frontier = nxt
        return out

    def ball_slots(self, source: int, radius: int) -> List[int]:
        """Slots within ``radius`` hops of id ``source`` (incl. source)."""
        trc = self.tracer
        if trc is None or not trc.enabled:
            return self._ball_slots(source, radius)
        with trc.trace("kernel.ball_bfs", center=source, radius=radius):
            return self._ball_slots(source, radius)

    def _ball_slots(self, source: int, radius: int) -> List[int]:
        src = self.index.get(source)
        if src is None:
            raise KeyError(f"vertex {source} not in graph")
        adj = self.adj
        self._token += 1
        token = self._token
        stamp = self._stamp
        stamp[src] = token
        reached = [src]
        frontier = [src]
        d = 0
        while frontier and d < radius:
            nxt: List[int] = []
            d += 1
            for u in frontier:
                for w in adj[u]:
                    if stamp[w] != token:
                        stamp[w] = token
                        reached.append(w)
                        nxt.append(w)
            frontier = nxt
        return reached

    def ball_ids(self, source: int, radius: int) -> FrozenSet[int]:
        """The k-ball as a frozenset of vertex ids (incl. the center)."""
        return frozenset(map(self.ids.__getitem__, self.ball_slots(source, radius)))

    def punctured_ball_slots(self, source: int, radius: int) -> List[int]:
        """Sorted slots of the ``radius``-ball of ``source``, minus it."""
        slots = self.ball_slots(source, radius)[1:]
        slots.sort()
        return slots

    def ball_intersects(
        self, source: int, radius: int, targets
    ) -> Tuple[bool, int]:
        """Does the ``radius``-ball of id ``source`` contain a target id?

        Early-exit BFS: returns ``(hit, vertices expanded)`` without
        materialising the ball.  ``targets`` is any id container with
        fast membership.
        """
        src = self.index.get(source)
        if src is None:
            raise KeyError(f"vertex {source} not in graph")
        if source in targets:
            return True, 1
        adj = self.adj
        ids = self.ids
        self._token += 1
        token = self._token
        stamp = self._stamp
        stamp[src] = token
        expanded = 1
        frontier = [src]
        d = 0
        while frontier and d < radius:
            nxt: List[int] = []
            d += 1
            for u in frontier:
                for w in adj[u]:
                    if stamp[w] != token:
                        stamp[w] = token
                        expanded += 1
                        if ids[w] in targets:
                            return True, expanded
                        nxt.append(w)
            frontier = nxt
        return False, expanded

    def shortest_path_tree(
        self, root: int, cutoff: Optional[int] = None
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """``(parent, depth)`` dicts matching the oracle's BFS tree.

        Requires :attr:`monotone_ids`: rows sorted by slot are then
        sorted by id, reproducing the oracle's smallest-id-parent
        adoption *and* its dict insertion order exactly.
        """
        if not self.monotone_ids:
            raise RuntimeError("id-sorted traversal unavailable after renames")
        src = self.index.get(root)
        if src is None:
            raise KeyError(f"vertex {root} not in graph")
        adj = self.adj
        ids = self.ids
        parent = {root: root}
        depth = {root: 0}
        frontier = [src]
        d = 0
        while frontier and (cutoff is None or d < cutoff):
            nxt: List[int] = []
            d += 1
            for u in frontier:
                uid = ids[u]
                for w in adj[u]:
                    wid = ids[w]
                    if wid not in parent:
                        parent[wid] = uid
                        depth[wid] = d
                        nxt.append(w)
            frontier = nxt
        return parent, depth

    # ------------------------------------------------------------------
    # Induced-subgraph primitives (members given as slot lists)
    # ------------------------------------------------------------------
    def member_slots(self, member_ids) -> List[int]:
        """Sorted slots of a collection of vertex ids."""
        index = self.index
        return sorted(index[v] for v in member_ids)

    def subgraph_signature(
        self, members: Sequence[int]
    ) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
        """The canonical ``(sorted ids, sorted edges)`` signature.

        Byte-identical to ``SubgraphView.signature()`` on the same
        member set, so kernel- and view-computed verdicts share one
        :class:`~repro.topology.signature.SpanMemo` keyspace.  While
        :attr:`monotone_ids` holds, slot-sorted ``members`` and
        slot-sorted rows are already id-sorted, so both sorts vanish.
        """
        ids = self.ids
        adj = self.adj
        self._member_token += 1
        token = self._member_token
        mstamp = self._member_stamp
        for i in members:
            mstamp[i] = token
        edges: List[Tuple[int, int]] = []
        append = edges.append
        if self.monotone_ids:
            # Slot order is id order: ``members`` (sorted slots) and the
            # per-row edge emission are already lexicographically sorted.
            for i in members:
                a = ids[i]
                for j in adj[i]:
                    if mstamp[j] == token and i < j:
                        append((a, ids[j]))
            return tuple(map(ids.__getitem__, members)), tuple(edges)
        for i in members:
            a = ids[i]
            for j in adj[i]:
                if mstamp[j] == token:
                    b = ids[j]
                    if a < b:
                        append((a, b))
        edges.sort()
        return tuple(sorted(ids[i] for i in members)), tuple(edges)

    def member_rows_signature(
        self, members: Sequence[int]
    ) -> Tuple[
        Dict[int, List[int]],
        Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]],
    ]:
        """Member-restricted rows and the canonical signature, one pass.

        The signature scan already filters every member's row down to
        members; handing those rows back lets
        :meth:`span_connected_verdict` skip its own full-row rescan.
        ``members`` must be sorted slots.
        """
        ids = self.ids
        adj = self.adj
        self._member_token += 1
        token = self._member_token
        mstamp = self._member_stamp
        for i in members:
            mstamp[i] = token
        mrows: Dict[int, List[int]] = {}
        edges: List[Tuple[int, int]] = []
        append = edges.append
        monotone = self.monotone_ids
        for i in members:
            a = ids[i]
            row = [j for j in adj[i] if mstamp[j] == token]
            mrows[i] = row
            for j in row:
                if i < j:
                    append((a, ids[j]))
        if monotone:
            return mrows, (tuple(map(ids.__getitem__, members)), tuple(edges))
        sig_edges = sorted(
            (a, b) if a < b else (b, a) for a, b in edges
        )
        return mrows, (
            tuple(sorted(ids[i] for i in members)),
            tuple(sig_edges),
        )

    def span_connected_verdict(
        self,
        members: Sequence[int],
        tau: int,
        mrows: Optional[Dict[int, List[int]]] = None,
    ) -> bool:
        """Definition 5 verdict on the induced subgraph of ``members``.

        True iff the induced subgraph is connected *and* its cycles of
        length at most ``tau`` span its whole GF(2) cycle space.  Runs
        entirely over slot arrays: one restricted BFS builds the
        spanning tree and proves connectivity, a second pass numbers the
        chords, then staged cycle enumeration feeds the elimination with
        early exit at full rank.  ``mrows`` (member-restricted sorted
        rows, e.g. from :meth:`member_rows_signature`) lets the BFS skip
        re-filtering the full adjacency rows.  The subspace spanned is a
        canonical function of the subgraph, so the verdict agrees with
        the dict-based :class:`~repro.cycles.horton.ShortCycleSpan`
        oracle.
        """
        trc = self.tracer
        if trc is None or not trc.enabled:
            return self._span_connected_verdict(members, tau, mrows)
        with trc.trace("kernel.span_verdict", members=len(members), tau=tau):
            return self._span_connected_verdict(members, tau, mrows)

    def _span_connected_verdict(
        self,
        members: Sequence[int],
        tau: int,
        mrows: Optional[Dict[int, List[int]]] = None,
    ) -> bool:
        if tau < 3:
            raise ValueError("tau must be at least 3 (the shortest cycle)")
        count = len(members)
        if count == 0:
            return True
        if mrows is None:
            adj = self.adj
            self._member_token += 1
            token = self._member_token
            mstamp = self._member_stamp
            for i in members:
                mstamp[i] = token
            mrows = {
                u: [w for w in adj[u] if mstamp[w] == token] for u in members
            }

        # Spanning tree + connectivity from the lowest slot; ``parent``
        # doubles as the visited mark (-1 = member not yet reached).
        parent = self._parent
        for i in members:
            parent[i] = -1
        root = members[0]
        parent[root] = root
        reached = 1
        frontier = [root]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for w in mrows[u]:
                    if parent[w] < 0:
                        parent[w] = u
                        reached += 1
                        nxt.append(w)
            frontier = nxt
        if reached != count:
            return False
        return self._stream_member_closures(members, mrows, parent, tau)

    def stream_short_closures(
        self,
        tau: int,
        chord_mask_ids: Dict[Tuple[int, int], int],
        basis: GF2Basis,
        dimension: int,
    ) -> None:
        """Feed tau-capped closures of the *whole* graph into ``basis``.

        Array-backed equivalent of
        :meth:`repro.cycles.horton.ShortCycleSpan._stream_closures`:
        ``chord_mask_ids`` is the id-keyed chord numbering of an already
        fixed spanning forest, so the subspace reached is identical and
        downstream ``contains`` queries agree with the oracle.  Stops as
        soon as the rank hits ``dimension``.
        """
        adj = self.adj
        ids = self.ids
        alive = self.alive
        index = self.index
        shift = max(len(ids), 1).bit_length()
        chord_mask: Dict[int, int] = {}
        for (a, b), mask in chord_mask_ids.items():
            ia, ib = index[a], index[b]
            if ia > ib:
                ia, ib = ib, ia
            chord_mask[(ia << shift) | ib] = mask
        get_chord = chord_mask.get
        seen = {0}
        cutoff = tau // 2
        budget = tau - 1
        dist = self._dist
        stamp = self._stamp
        acc = self._acc
        for root in range(len(ids)):
            if not alive[root]:
                continue
            self._token += 1
            tok = self._token
            stamp[root] = tok
            dist[root] = 0
            acc[root] = 0
            reached = [root]
            frontier = [root]
            d = 0
            while frontier and d < cutoff:
                nxt: List[int] = []
                d += 1
                for u in frontier:
                    acc_u = acc[u]
                    for w in adj[u]:
                        if stamp[w] != tok:
                            stamp[w] = tok
                            dist[w] = d
                            key = (u << shift) | w if u < w else (w << shift) | u
                            acc[w] = acc_u ^ get_chord(key, 0)
                            reached.append(w)
                            nxt.append(w)
                frontier = nxt
            for x in reached:
                dx = dist[x]
                acc_x = acc[x]
                for y in adj[x]:
                    if y > x and stamp[y] == tok and dx + dist[y] <= budget:
                        closure = acc_x ^ acc[y] ^ get_chord((x << shift) | y, 0)
                        if closure not in seen:
                            seen.add(closure)
                            if basis.add(closure) and basis.rank == dimension:
                                return

    def _stream_member_closures(
        self,
        members: Sequence[int],
        mrows: Dict[int, List[int]],
        parent: List[int],
        tau: int,
    ) -> bool:
        """Rank test: do the member cycles of length <= tau fill the space?

        Staged enumeration, cheapest candidates first.  Girth-3 and
        girth-4 cycles are read straight off the sorted member rows
        (triangle = edge + common neighbour; 4-cycle = two vertices with
        >= 2 common neighbours), with the algebraic thinning that for a
        diagonal pair with common neighbours ``c0..ck`` only the ``k``
        4-cycles through ``c0`` are streamed — every other 4-cycle on
        that diagonal is their XOR.  Since every simple cycle of length
        <= 4 is a triangle or a 4-cycle, the two stages are *complete*
        for tau in {3, 4}: no BFS at all on the hot path.  Only tau >= 5
        falls through to per-root truncated-BFS closure streaming for
        the longer cycles.

        Elimination is inlined (a flat pivot array indexed by leading
        bit) with early exit at full rank — dense neighbourhoods
        usually reach full rank midway through the triangle stage.
        """
        # Chord numbering, stored positionally: ``amask[u][i]`` is the
        # chord mask of edge ``(u, mrows[u][i])`` (0 for tree edges), so
        # the enumeration stages read masks by row index — no hashed
        # lookups in the inner loops.  Each edge is visited once from
        # its smaller endpoint; its position in the larger endpoint's
        # row is tracked by a per-vertex cursor (smaller neighbours of
        # ``w`` arrive in ascending order as ``u`` sweeps the sorted
        # member list, which is exactly row order).
        amask: Dict[int, List[int]] = {u: [0] * len(mrows[u]) for u in members}
        ptr = self._dist  # scratch; stage 3 reinitialises before reuse
        for u in members:
            ptr[u] = 0
        bit = 0
        for u in members:
            pu = parent[u]
            row = mrows[u]
            arow = amask[u]
            for idx in range(bisect_right(row, u), len(row)):
                w = row[idx]
                p = ptr[w]
                ptr[w] = p + 1
                if pu != w and parent[w] != u:
                    m = 1 << bit
                    bit += 1
                    arow[idx] = m
                    amask[w][p] = m
        nu = bit
        if nu == 0:
            return True

        pivots = [0] * nu
        rank = 0
        seen = {0}
        seen_add = seen.add
        stamp = self._stamp
        emask = self._acc  # scratch; stage 3 reinitialises before reuse
        # Per-vertex ``(neighbour > u, mask)`` suffix tails, zipped once:
        # both triangle loops walk exactly this suffix, and the inner one
        # walks ``w``'s tail once per incident edge — prezipping turns a
        # per-pair double slice into a single list iteration.
        tails: Dict[int, List[Tuple[int, int]]] = {}
        for u in members:
            row = mrows[u]
            i0 = bisect_right(row, u)
            tails[u] = list(zip(row[i0:], amask[u][i0:]))
        # Stage 1: triangles.  Edge (u, w) plus a common neighbour
        # v > w emits each triangle exactly once.  Rows are sorted, so
        # the tails skip the prefixes the slot-order conditions would
        # reject one by one; u's neighbours are token-stamped with their
        # edge masks so the common-neighbour test and the (u, v) mask
        # are one array probe.
        for u in members:
            self._token += 1
            tok = self._token
            for v, m in zip(mrows[u], amask[u]):
                stamp[v] = tok
                emask[v] = m
            for w, base in tails[u]:
                for v, mwv in tails[w]:
                    if stamp[v] == tok:
                        vec = base ^ emask[v] ^ mwv
                        while vec:
                            lead = vec.bit_length() - 1
                            row = pivots[lead]
                            if not row:
                                pivots[lead] = vec
                                rank += 1
                                break
                            vec ^= row
                        if rank == nu:
                            return True
        if tau == 3:
            return rank == nu  # triangles are complete for tau == 3

        # Stage 2: 4-cycles.  For every diagonal (u, w), u < w, with
        # common neighbours c0..ck, stream u-c0-w-ci (i >= 1); the
        # remaining u-ci-w-cj are XORs of those, so the span is intact.
        # Wedges u-c-w are streamed as they are enumerated: the first
        # wedge on each diagonal is held back as ``c0``'s path mask, and
        # every later wedge closes a 4-cycle against it.
        for u in members:
            first: Dict[int, int] = {}
            get_first = first.get
            for c, mc in zip(mrows[u], amask[u]):
                rc = mrows[c]
                mcr = amask[c]
                j0 = bisect_right(rc, u)
                for w, mcw in zip(islice(rc, j0, None), islice(mcr, j0, None)):
                    m = mc ^ mcw
                    prev = get_first(w)
                    if prev is None:
                        first[w] = m
                        continue
                    vec = prev ^ m
                    if vec in seen:
                        continue
                    seen_add(vec)
                    while vec:
                        lead = vec.bit_length() - 1
                        row = pivots[lead]
                        if not row:
                            pivots[lead] = vec
                            rank += 1
                            break
                        vec ^= row
                    if rank == nu:
                        return True
        if tau == 4:
            return rank == nu  # triangles + 4-cycles are complete for tau == 4

        # Stage 3 (tau >= 5): general tau-capped closure streaming —
        # per-root truncated BFS with XOR-accumulated chord masks.
        cutoff = tau // 2
        budget = tau - 1
        dist = self._dist
        stamp = self._stamp
        acc = self._acc
        for root in members:
            self._token += 1
            tok = self._token
            stamp[root] = tok
            dist[root] = 0
            acc[root] = 0
            reached = [root]
            frontier = [root]
            d = 0
            while frontier and d < cutoff:
                nxt: List[int] = []
                d += 1
                for u in frontier:
                    acc_u = acc[u]
                    for w, m in zip(mrows[u], amask[u]):
                        if stamp[w] != tok:
                            stamp[w] = tok
                            dist[w] = d
                            acc[w] = acc_u ^ m
                            reached.append(w)
                            nxt.append(w)
                frontier = nxt
            for x in reached:
                dx = dist[x]
                acc_x = acc[x]
                for y, m in zip(mrows[x], amask[x]):
                    if y > x and stamp[y] == tok and dx + dist[y] <= budget:
                        vec = acc_x ^ acc[y] ^ m
                        if vec in seen:
                            continue
                        seen_add(vec)
                        while vec:
                            lead = vec.bit_length() - 1
                            row = pivots[lead]
                            if not row:
                                pivots[lead] = vec
                                rank += 1
                                break
                            vec ^= row
                        if rank == nu:
                            return True
        return rank == nu
