"""Flat, array-based span kernel: CSR adjacency + integer BFS + GF(2) span.

The deletability primitive of Definition 5 bottoms out in three loops:
k-ball extraction (BFS), chord numbering (spanning forest), and staged
tau-capped cycle streaming into a GF(2) elimination; before the last
two, each ball is shrunk to its strong-collapse core, which has the same
verdict.  The collapse walks the mirror's rows directly, over scratch
that is zero outside the call.  It pops the ball outermost layer first,
then retests in sweeps only the members a removal touched, and stops
once one vertex is left; member rows are built for the core only.
The last two are one staged rank routine (a tree closure that
solves every chord with a short path through the spanning tree, then
triangles, 4-cycles and truncated-BFS closures on what is left), which
also answers every whole-graph question:
the coverage criterion (:meth:`CSRGraph.short_cycles_contain`) runs it on
the graph's strong-collapse core with the boundary vertices pinned, and
``ShortCycleSpan`` (:meth:`CSRGraph.short_cycle_span`) on the whole graph.
The mirror serves the topology engine and these span questions only;
the dict graph's own traversals (``bfs_distances``, ``ShortestPathTree``)
never switch onto it.  The dict-of-sets
:class:`~repro.network.graph.NetworkGraph` pays hashing and allocation
on every step of all three.  :class:`CSRGraph` is a compact int-indexed
mirror of a ``NetworkGraph`` — vertex ids are mapped onto dense slots,
adjacency rows are flat lists of slot indices, and every traversal runs
over preallocated scratch arrays with token-stamped visitation (no
per-query clearing, no per-vertex hashing).  The collapse scratch is the
exception: it is cleared over the members on every exit instead.

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
reference oracles (:func:`repro.checks.sanitizer.oracle_deletable`,
``ShortCycleSpan(use_csr=False)``) stay in the tree; the property suite
drives the kernel against them under random mutation sequences.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import compress, islice
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)


def is_even_subgraph(
    edges: Iterable[Tuple[int, int]], has_edge: Callable[[int, int], bool]
) -> bool:
    """Is ``edges`` an element of the host graph's cycle space?

    True iff every pair is an edge of the host (``has_edge``) and every
    vertex meets an even number of the pairs.  The kernel's criterion
    and the dict ``ShortCycleSpan`` both reject anything else here,
    before projecting onto chord space.
    """
    odd: Set[int] = set()
    for u, v in edges:
        if not has_edge(u, v):
            return False
        odd ^= {u, v}
    return not odd


class CSRGraph:
    """Compact adjacency mirror of a :class:`NetworkGraph`.

    Slots (dense ints) are assigned to vertex ids in sorted-id order at
    build time; vertices added later get fresh slots at the end.  Rows
    are kept sorted by slot.
    """

    __slots__ = (
        "base",
        "version",
        "ids",
        "index",
        "adj",
        "alive",
        "tracer",
        "_dist",
        "_stamp",
        "_token",
        "_bit",
        "_closed",
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
        n = len(ids)
        # Token-stamped scratch: a cell is valid only when its stamp
        # matches the current token, so traversals never clear arrays.
        self._dist = [0] * n
        self._stamp = [0] * n
        self._token = 0
        # Collapse scratch, zero in every cell outside a
        # :meth:`strong_collapse` call.
        self._bit = [0] * n
        self._closed = [0] * n
        self._parent = [0] * n
        self._acc = [0] * n
        self.version = base.version

    # ------------------------------------------------------------------
    # Incremental mutation (base graph and mirror move together)
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        self._dist.append(0)
        self._stamp.append(0)
        self._bit.append(0)
        self._closed.append(0)
        self._parent.append(0)
        self._acc.append(0)

    def _slot(self, v: int) -> int:
        """Slot of ``v``, allocating a fresh one for a new vertex."""
        i = self.index.get(v)
        if i is not None:
            return i
        i = len(self.ids)
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

    # ------------------------------------------------------------------
    # Induced-subgraph primitives (members given as slot lists)
    # ------------------------------------------------------------------
    def member_slots(self, member_ids) -> List[int]:
        """Sorted slots of a collection of vertex ids."""
        index = self.index
        return sorted(index[v] for v in member_ids)

    def span_connected_verdict(self, members: Sequence[int], tau: int) -> bool:
        """Definition 5 verdict on the induced subgraph of ``members``.

        True iff the induced subgraph is connected *and* its cycles of
        length at most ``tau`` span its whole GF(2) cycle space.  Runs
        entirely over slot arrays: one restricted BFS builds the
        spanning forest (connected iff it is one tree), a second pass
        numbers the chords, then the staged rank routine
        (:meth:`_rank_stages`) feeds the elimination with early exit at
        full rank.  Both tests run on the
        strong-collapse core (:meth:`strong_collapse`), which has the
        same verdict as the full subgraph.  The subspace spanned is a
        canonical function of the subgraph, so the verdict agrees with
        the dict-based :class:`~repro.cycles.horton.ShortCycleSpan`
        oracle.
        """
        trc = self.tracer
        if trc is None or not trc.enabled:
            return self._span_connected_verdict(members, tau)
        with trc.trace(
            "kernel.span_verdict", members=len(members), tau=tau
        ) as handle:
            return self._span_connected_verdict(members, tau, handle)

    def _span_connected_verdict(
        self, members: Sequence[int], tau: int, handle=None
    ) -> bool:
        if tau < 3:
            raise ValueError("tau must be at least 3 (the shortest cycle)")
        if not members:
            return True
        members, mrows = self.strong_collapse(members)
        if handle is not None:
            handle.set(core=len(members))
        if self._spanning_forest(members, mrows) != 1:
            return False
        span = self._number_chords(members, mrows)
        stage = self._rank_stages(span, members, tau)
        if handle is not None:
            handle.set(nu=span.nu, closed=span.closed, stage=stage or "none")
        return stage is not None

    def strong_collapse(
        self, members: Sequence[int], pinned: Collection[int] = ()
    ) -> Tuple[List[int], Dict[int, List[int]]]:
        """The dominated-vertex-free core of the subgraph on ``members``.

        A member ``u`` is *dominated* by a member neighbour ``v`` when
        N[u] is a subset of N[v] (closed neighbourhoods in the current
        induced subgraph).  Removing ``u`` keeps the Definition 5 verdict
        for every tau >= 3: paths through ``u`` reroute through ``v``,
        and the triangles ``u-a-v`` carry the cycles through ``u`` both
        ways (DESIGN.md section 5).  Dominated members are removed until
        none is left — Barmak & Minian's strong collapse.  Members in
        ``pinned`` are never removed (they may still dominate): the
        criterion pins the boundary so the boundary sum survives in the
        core.

        The pass reads the mirror's own rows.  ``_bit`` and ``_closed``
        are zero in every cell outside a call, so a non-member reads as
        bit 0 with an empty closed neighbourhood and needs no filter.
        The first sweep pops the unpinned members from the end of
        ``members``: for a ball in BFS order the outermost layer, the
        likeliest to be dominated, goes first.  Each later sweep retests,
        again outermost first, the live members that a removal marked as
        its neighbours since their last pop.  The pass stops when a sweep
        ends with nothing marked or one live member, the core, is left.

        Returns the core as sorted slots with its member-restricted rows.
        """
        adj = self.adj
        bit = self._bit
        closed = self._closed
        try:
            b = 1
            for u in members:
                bit[u] = b
                b <<= 1
            # ``live`` holds the bits of the members not yet removed.  A
            # removal zeroes only its own ``closed`` cell (so it never
            # dominates) and its ``live`` bit; the neighbours' masks go
            # stale, and every test reads them under ``live``.
            live = b - 1
            getb = bit.__getitem__
            for u in members:
                closed[u] = bit[u] + sum(map(getb, adj[u]))
            work = [u for u in members if u not in pinned] if pinned else list(members)
            unpinned = sum(map(getb, work)) if pinned else live
            # A removal can only create domination among its live neighbours:
            # it marks them in ``again``; a pop clears its own mark.
            again = 0
            left = len(members)
            while work:
                u = work.pop()
                bu = bit[u]
                again &= ~bu
                cu = closed[u] & live
                for w in adj[u]:
                    cw = closed[w]
                    if cu | cw == cw:
                        closed[u] = 0
                        live ^= bu
                        left -= 1
                        if left == 1:
                            last = members[live.bit_length() - 1]
                            return [last], {last: []}
                        again |= cu
                        break
                if not work:
                    # The next sweep, in ascending bit order: outermost pops first.
                    marked = bin(again & live & unpinned)[:1:-1]
                    work = list(compress(members, map("1".__eq__, marked)))
            core = sorted(u for u in members if closed[u])
            return core, {u: [w for w in adj[u] if closed[w]] for u in core}
        finally:
            for u in members:
                bit[u] = closed[u] = 0

    # ------------------------------------------------------------------
    # Whole-graph short-cycle span (the coverage criterion)
    # ------------------------------------------------------------------
    def _live_slots(self) -> List[int]:
        return [u for u, live in enumerate(self.alive) if live]

    def short_cycles_contain(self, edges: Sequence[Tuple[int, int]], tau: int) -> bool:
        """Is the edge set a GF(2) sum of cycles of length at most ``tau``?

        The coverage criterion of Propositions 2 and 3.  ``edges`` are
        vertex-id pairs; a set with a non-edge or an odd-degree vertex
        is not in the cycle space and answers False
        (:func:`is_even_subgraph`).  The whole graph is first
        strong-collapsed with the edges' endpoints pinned, which leaves
        the answer unchanged (DESIGN.md section 5); the staged rank
        routine then runs on the core with the edge set's chord vector as
        its target and stops as soon as that vector reduces to zero.
        """
        if tau < 3:
            raise ValueError("tau must be at least 3 (the shortest cycle)")
        if not is_even_subgraph(edges, self.base.has_edge):
            return False
        if not edges:
            return True
        index = self.index
        slot_edges = [(index[a], index[b]) for a, b in edges]
        pinned = {s for edge in slot_edges for s in edge}
        members, mrows = self.strong_collapse(self._live_slots(), pinned)
        self._spanning_forest(members, mrows)
        span = self._number_chords(members, mrows)
        target = span.project(slot_edges)
        return self._rank_stages(span, members, tau, target) is not None

    def short_cycle_span(self, tau: int) -> "StagedSpan":
        """The span of every cycle of length at most ``tau`` in the graph.

        The staged rank routine over a spanning forest of all live slots,
        run until its stages are exhausted or the rank is full.  There is
        no collapse, so the rank is the graph's own.  The span keeps
        copies of the rows it numbered, so later mutations of the mirror
        do not change its chord numbering.
        """
        if tau < 3:
            raise ValueError("tau must be at least 3 (the shortest cycle)")
        adj = self.adj
        members = self._live_slots()
        mrows = {u: list(adj[u]) for u in members}
        self._spanning_forest(members, mrows)
        span = self._number_chords(members, mrows)
        self._rank_stages(span, members, tau)
        return span

    # ------------------------------------------------------------------
    # The staged rank routine
    # ------------------------------------------------------------------
    def _spanning_forest(
        self, members: Sequence[int], mrows: Dict[int, List[int]]
    ) -> int:
        """BFS spanning forest of the member subgraph, into ``_parent``.

        Each tree grows from the lowest member not yet reached, and a
        root is its own parent.  Returns the number of trees, so the
        member subgraph is connected iff it returns 1.
        """
        parent = self._parent
        for i in members:
            parent[i] = -1
        trees = 0
        for root in members:
            if parent[root] >= 0:
                continue
            trees += 1
            parent[root] = root
            frontier = [root]
            while frontier:
                nxt: List[int] = []
                for u in frontier:
                    for w in mrows[u]:
                        if parent[w] < 0:
                            parent[w] = u
                            nxt.append(w)
                frontier = nxt
        return trees

    def _number_chords(
        self, members: Sequence[int], mrows: Dict[int, List[int]]
    ) -> "StagedSpan":
        """Chord numbering over the forest in ``_parent``, stored positionally.

        ``amask[u][i]`` is the chord mask of edge ``(u, mrows[u][i])`` (0
        for tree edges), so the stages read masks by row index — no
        hashed lookups in the inner loops.  Each edge is visited once
        from its smaller endpoint; its position in the larger endpoint's
        row is tracked by a per-vertex cursor (smaller neighbours of
        ``w`` arrive in ascending order as ``u`` sweeps the sorted member
        list, which is exactly row order).  The same pass lays out the
        tree closure's input (:meth:`_tree_closure`): the forest's closed
        neighbourhoods as bitsets over member positions, its edges as
        position pairs, and every chord with both of its mask cells.
        """
        parent = self._parent
        amask: Dict[int, List[int]] = {u: [0] * len(mrows[u]) for u in members}
        ptr = self._dist  # scratch; stage 3 reinitialises before reuse
        pos = self._acc  # scratch; the triangle stage overwrites it
        for i, u in enumerate(members):
            ptr[u] = 0
            pos[u] = i
        near = [1 << i for i in range(len(members))]
        tree: List[Tuple[int, int]] = []
        chords: List[Tuple[int, int, int, List[int], int, List[int], int]] = []
        bit = 0
        for u in members:
            pu = parent[u]
            row = mrows[u]
            arow = amask[u]
            i = pos[u]
            for idx in range(bisect_right(row, u), len(row)):
                w = row[idx]
                p = ptr[w]
                ptr[w] = p + 1
                j = pos[w]
                if pu != w and parent[w] != u:
                    m = 1 << bit
                    arow[idx] = m
                    wrow = amask[w]
                    wrow[p] = m
                    chords.append((i, j, bit, arow, idx, wrow, p))
                    bit += 1
                else:
                    tree.append((i, j))
                    near[i] |= 1 << j
                    near[j] |= 1 << i
        span = StagedSpan(mrows, amask, bit)
        span.closure = (near, tree, chords)
        return span

    def _rank_stages(
        self,
        span: "StagedSpan",
        members: Sequence[int],
        tau: int,
        target: Optional[int] = None,
    ) -> Optional[str]:
        """Stream the member cycles of length <= tau into ``span``.

        The tree closure (:meth:`_tree_closure`) runs first and solves
        every chord it can; the stages then stream, cheapest candidates
        first, in the quotient it leaves: triangles, 4-cycles, then (tau
        >= 5) truncated-BFS closures.  Every simple cycle of length <= 4
        is a triangle or a 4-cycle, so the first two stages are
        *complete* for tau in {3, 4}: no BFS at all on the hot path.
        Elimination is inlined into each stage (a flat pivot array
        indexed by leading bit) with early exit at full rank — the
        closure alone fills it on most dense neighbourhoods.

        With ``target`` None the question is Definition 5's: do the short
        cycles fill the whole cycle space?  With a chord vector it is
        the criterion's: is the vector in their span?  It is reduced
        against the pivots after the closure and after each stage, and
        the routine answers as soon as it reduces to zero.

        Returns the step that completed the rank or emptied the target —
        ``"closure"``, ``"triangle"``, ``"square"`` or ``"bfs"``; ``""``
        when there is nothing to fill — or None when the short cycles
        fall short.
        """
        nu = span.nu
        if target == 0 or nu == 0:
            span.closure = None
            return ""
        rank = self._tree_closure(span, tau)
        if rank == nu:
            return "closure"
        if target is not None:
            target = span.reduce(target)
            if not target:
                return "closure"
        if rank == nu - 1:
            # A short cycle through exactly one residual chord is that
            # chord plus a path through H, which would have solved it;
            # so a lone residual chord lies on no short cycle.
            return None
        for name, stage, complete_at in (
            ("triangle", self._triangle_stage, 3),
            ("square", self._square_stage, 4),
            ("bfs", self._bfs_stage, tau),
        ):
            rank = stage(span, members, tau, rank)
            if rank == nu:
                return name
            if target is not None:
                target = span.reduce(target)
                if not target:
                    return name
            if tau <= complete_at:
                break
        return None

    def _tree_closure(self, span, tau) -> int:
        """Solve each chord that closes a cycle of length <= tau through H.

        H starts as the spanning forest.  A chord (a, b) is *solved* when
        H holds an a-b path of at most tau - 1 edges; it then joins H.
        The test reads closed-ball bitsets of H over member positions:
        B_r1(a) and B_r2(b) meet, with r1 + r2 = tau - 1, exactly when
        such a path exists.  The balls are recomputed between sweeps over
        the pending chords (a chord joining H mid-sweep already widens
        its endpoints' radius-1 balls), until a sweep solves nothing.
        That last sweep read balls exact for the final H, so no chord
        left has such a path: the closure stops at its fixpoint, which
        the lone-chord exit of :meth:`_rank_stages` relies on.  Solving
        is monotone in H, so the chords solved do not depend on the
        order of the walk.

        Exactness: a solved chord's cycle is the chord plus tree edges
        and chords solved before it, so these cycles are independent and
        their span S is the span of the solved chords' unit vectors.  Let
        pi clear the solved bits; ker pi = S lies inside the tau-span, so
        rank = #solved + rank pi(candidates), and a target lies in the
        tau-span iff its image under pi lies in pi of it.  Each solved
        chord is recorded as a unit pivot, which keeps
        :meth:`StagedSpan.rank` and :meth:`StagedSpan.reduce` exact, and
        its ``amask`` cells are zeroed, so every stage streams projected
        vectors with no XOR spent on solved bits and
        :meth:`StagedSpan.project` returns the image under pi.  Returns
        the number of chords solved.
        """
        near, tree, chords = span.closure
        span.closure = None
        r1 = (tau - 1) // 2
        r2 = tau - 1 - r1
        pivots = span.pivots
        solved = 0
        while chords:
            ball = ball1 = near
            for r in range(2, r2 + 1):
                nxt = ball[:]
                for i, j in tree:
                    nxt[i] |= ball[j]
                    nxt[j] |= ball[i]
                ball = nxt
                if r == r1:
                    ball1 = ball
            left = []
            for chord in chords:
                i, j, b, arow, idx, wrow, p = chord
                if ball1[i] & ball[j]:
                    pivots[b] = arow[idx]
                    arow[idx] = wrow[p] = 0
                    tree.append((i, j))
                    near[i] |= 1 << j
                    near[j] |= 1 << i
                else:
                    left.append(chord)
            if len(left) == len(chords):
                break
            solved += len(chords) - len(left)
            chords = left
        span.closed = solved
        return solved

    def _triangle_stage(self, span, members, tau, rank) -> int:
        """Stage 1: every triangle once; returns the rank reached."""
        mrows = span.rows
        amask = span.amask
        pivots = span.pivots
        nu = span.nu
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
        # Edge (u, w) plus a common neighbour v > w emits each triangle
        # exactly once.  Rows are sorted, so the tails skip the prefixes
        # the slot-order conditions would reject one by one; u's
        # neighbours are token-stamped with their edge masks so the
        # common-neighbour test and the (u, v) mask are one array probe.
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
                            return rank
        return rank

    def _square_stage(self, span, members, tau, rank) -> int:
        """Stage 2: 4-cycles, each from its lowest vertex; returns the rank.

        A 4-cycle's lowest vertex ``u`` and the vertex ``w`` opposite it
        form a diagonal whose other two vertices both lie above ``u``.
        For every such diagonal with common neighbours c0 < .. < ck
        above ``u``, stream u-c0-w-ci (i >= 1); the remaining u-ci-w-cj
        are XORs of those, so the span is intact.  A streamed cycle
        names its own diagonal and ``ci``, so no vector is streamed
        twice and no dedupe set is kept.  Wedges u-c-w are streamed as
        they are enumerated: the first wedge on each diagonal is held
        back as ``c0``'s path mask, and every later wedge closes a
        4-cycle against it.
        """
        mrows = span.rows
        amask = span.amask
        pivots = span.pivots
        nu = span.nu
        for u in members:
            first: Dict[int, int] = {}
            get_first = first.get
            row = mrows[u]
            i0 = bisect_right(row, u)
            for c, mc in zip(islice(row, i0, None), islice(amask[u], i0, None)):
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
                    while vec:
                        lead = vec.bit_length() - 1
                        prow = pivots[lead]
                        if not prow:
                            pivots[lead] = vec
                            rank += 1
                            break
                        vec ^= prow
                    if rank == nu:
                        return rank
        return rank

    def _bfs_stage(self, span, members, tau, rank) -> int:
        """Stage 3 (tau >= 5): per-root truncated-BFS closure streaming.

        For every root, the closure ``path(r,x) + (x,y) + path(r,y)`` of
        an edge inside the depth-``tau // 2`` BFS tree projects to a
        cycle of length at most tau; chord masks accumulate along tree
        edges.  Returns the rank reached.
        """
        mrows = span.rows
        amask = span.amask
        pivots = span.pivots
        nu = span.nu
        seen = {0}  # skip exact duplicates before the reduce
        seen_add = seen.add
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
                            return rank
        return rank


class StagedSpan:
    """A short-cycle span in chord space, as the rank stages leave it.

    The chords of a spanning forest are numbered positionally:
    ``amask[u][i]`` is the single-bit mask of edge ``(u, rows[u][i])``,
    0 for a tree edge, and ``nu`` counts the chords (the cycle-space
    dimension).  ``pivots[b]`` is the reduced row whose leading bit is
    ``b``, or 0 when no row leads there.  ``closure`` holds the tree
    closure's input until it runs; ``closed`` then counts the chords it
    solved, each a unit pivot with its ``amask`` cells zeroed.
    """

    __slots__ = ("rows", "amask", "nu", "pivots", "closure", "closed")

    def __init__(
        self, rows: Dict[int, List[int]], amask: Dict[int, List[int]], nu: int
    ) -> None:
        self.rows = rows
        self.amask = amask
        self.nu = nu
        self.pivots = [0] * nu
        self.closure: Optional[tuple] = None
        self.closed = 0

    @property
    def rank(self) -> int:
        return self.nu - self.pivots.count(0)

    def project(self, slot_edges: Iterable[Tuple[int, int]]) -> int:
        """Chord vector of an edge set given as slot pairs of the rows."""
        rows = self.rows
        amask = self.amask
        vec = 0
        for a, b in slot_edges:
            if a > b:
                a, b = b, a
            vec ^= amask[a][bisect_left(rows[a], b)]
        return vec

    def reduce(self, vec: int) -> int:
        """Residue of ``vec`` against the pivots; 0 iff it is in the span."""
        pivots = self.pivots
        while vec:
            row = pivots[vec.bit_length() - 1]
            if not row:
                break
            vec ^= row
        return vec
