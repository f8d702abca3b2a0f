"""The incremental local-topology engine.

Every coverage decision in the paper reduces to one primitive: extract a
punctured k-hop neighbourhood and decide whether short cycles span its
GF(2) cycle space (Definition 5 / Theorem 4).  The seed code recomputed
that primitive independently at four call sites; this engine owns it
once, incrementally:

* **A per-vertex verdict cache with k-ball eviction.**  The Definition 5
  test is local: a vertex's verdict can change only when something
  within its k-ball changes.  Deleting ``v`` therefore BFSes the k-ball
  of ``v`` and evicts the verdicts of exactly those vertices; every
  other verdict survives the deletion.  Edge mutations drop the whole
  cache.
* **Fresh verdicts from the CSR kernel.**  A cache miss extracts the
  punctured k-ball in slot space and runs the kernel's span verdict on
  it (:meth:`~repro.cycles.kernel.CSRGraph.span_connected_verdict`);
  the engine's mutations patch the kernel mirror and the graph together.
* **Instrumentation.**  All of the above is counted in
  :class:`TopologyCounters`, surfaced on ``ScheduleResult`` and
  ``RuntimeStats``.  Verdict spans go to the ambient tracer
  (:func:`repro.obs.tracer.observe`) captured when the engine is built.

The engine owns its graph: all mutations must go through
:meth:`delete_vertex` / :meth:`delete_edge` / :meth:`add_edge` /
:meth:`add_vertex`.  Out-of-band mutations are detected via the graph's
version counter and answered with a wholesale cache flush, so results
stay correct even then.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.checks.sanitizer import current_sanitizer
from repro.network.graph import NetworkGraph
from repro.obs.tracer import current_tracer, observe
from repro.topology.counters import TopologyCounters
from repro.topology.radii import neighborhood_radius


class OwnedRegionError(RuntimeError):
    """A verdict was requested outside an engine's owned region.

    Raised by engines constructed with ``owned=...`` (the shard runtime):
    a shard may *traverse* its halo band freely — balls and separation
    probes legitimately reach into it — but a deletability verdict for a
    vertex it does not own would be computed on a partition that is not
    guaranteed to contain that vertex's full k-ball, so it must come from
    the owner via the halo exchange instead.
    """


class LocalTopologyEngine:
    """Incremental k-ball extraction and deletability testing.

    Parameters
    ----------
    graph:
        The graph the engine operates on.  *Owned* by the engine — apply
        mutations through the engine so caches stay consistent (direct
        mutations are tolerated but flush every cache).
    tau:
        The confine size; fixes the test radius ``k = ceil(tau/2)``.
    counters:
        Optional shared :class:`TopologyCounters` (several engines can
        aggregate into one, as the distributed protocol's per-node views
        do).
    owned:
        Optional owned-region restriction (the shard runtime).  When
        set, :meth:`deletable` refuses vertices outside the set with
        :class:`OwnedRegionError`; traversal queries (balls, separation
        probes) stay unrestricted, mirroring the halo-band contract.
    """

    def __init__(
        self,
        graph: NetworkGraph,
        tau: int,
        *,
        counters: Optional[TopologyCounters] = None,
        owned: Optional[FrozenSet[int]] = None,
    ) -> None:
        self.graph = graph
        self.tau = tau
        self.owned = owned
        self.radius = neighborhood_radius(tau)
        self.counters = counters if counters is not None else TopologyCounters()
        self._kernel = graph.csr()
        self._capture_ambient()
        self._verdicts: Dict[int, bool] = {}
        self._criterion_key: Optional[Tuple] = None
        self._criterion = False
        self._version = graph.version

    @property
    def kernel(self):
        """The CSR mirror, cache-synced.

        Callers running radius-bounded sweeps directly on the mirror
        (the wave-MIS propagation) go through this accessor so a
        behind-our-back graph mutation rebuilds the mirror first.
        """
        self._sync()
        return self._kernel

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _capture_ambient(self) -> None:
        """Observe through the ambient tracer.

        Timing is recorded only while ``tracer.enabled``: the disabled
        path pays one attribute lookup per fresh verdict.  The tracer is
        propagated to the kernel mirror so its ball-BFS and span-verdict
        spans nest under the engine's.
        """
        self.tracer = current_tracer()
        self._kernel.tracer = self.tracer if self.tracer.enabled else None

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Flush everything if the graph was mutated behind our back."""
        if self.graph.version != self._version:
            self.invalidate_all()

    def _drop_verdicts(self) -> None:
        self.counters.invalidations += len(self._verdicts)
        self._verdicts.clear()

    def invalidate_all(self) -> None:
        """Drop every cached verdict and rebuild the kernel mirror."""
        self._drop_verdicts()
        self._kernel = self.graph.csr()
        if self.tracer.enabled:
            self._kernel.tracer = self.tracer
        self._version = self.graph.version

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def delete_vertex(self, v: int) -> Set[int]:
        """Remove ``v`` in place; evicts only the verdicts in its k-ball.

        Removing ``v`` changes the punctured k-ball of ``u`` only when
        ``v`` lies in it or on a path of length ``<= k`` from ``u`` —
        both need ``u`` within ``k`` hops of ``v``.
        """
        self._sync()
        kernel = self._kernel
        if self._verdicts:
            # The untraced BFS: eviction is not a verdict's ball.
            slots = kernel._ball_slots(v, self.radius)
            self.counters.ball_computations += 1
            self.counters.bfs_expansions += len(slots)
            ids = kernel.ids
            for s in slots:
                if self._verdicts.pop(ids[s], None) is not None:
                    self.counters.invalidations += 1
        nbrs = kernel.delete_vertex(v)
        self._version = self.graph.version
        return nbrs

    def delete_edge(self, u: int, v: int) -> None:
        self._sync()
        self._drop_verdicts()
        self._kernel.delete_edge(u, v)
        self._version = self.graph.version

    def add_edge(self, u: int, v: int) -> None:
        self._sync()
        self._drop_verdicts()
        self._kernel.add_edge(u, v)
        self._version = self.graph.version

    def add_vertex(self, v: int) -> None:
        # A fresh isolated vertex changes no distances: nothing to flush.
        self._sync()
        self._kernel.add_vertex(v)
        self._version = self.graph.version

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def ball(self, v: int, radius: Optional[int] = None) -> FrozenSet[int]:
        """Vertices within ``radius`` hops of ``v`` — including ``v``.

        ``radius`` defaults to the engine's deletability radius ``k``.
        """
        self._sync()
        if radius is None:
            r = self.radius
        elif radius < 0:
            raise ValueError("radius must be non-negative")
        else:
            r = radius
        ball = self._kernel.ball_ids(v, r)
        self.counters.ball_computations += 1
        self.counters.bfs_expansions += len(ball)
        sanitizer = current_sanitizer()
        if sanitizer is not None:
            sanitizer.check_ball(self.graph, v, r, ball)
        return ball

    def deletable(self, v: int) -> bool:
        """Definition 5: is ``v`` void-preserving deletable (cached)?"""
        if self.owned is not None and v not in self.owned:
            raise OwnedRegionError(
                f"verdict requested for {v} outside the engine's owned region"
            )
        self._sync()
        self.counters.deletability_queries += 1
        cached = self._verdicts.get(v)
        if cached is not None:
            self.counters.deletability_cache_hits += 1
            sanitizer = current_sanitizer()
            if sanitizer is not None:
                sanitizer.check_cached_verdict(self.graph, v, self.tau, cached)
            return cached
        self.counters.deletability_tests += 1
        tracer = self.tracer
        if tracer.enabled:
            with tracer.trace("engine.verdict", vertex=v):
                verdict = self._fresh_verdict(v)
        else:
            verdict = self._fresh_verdict(v)
        self._verdicts[v] = verdict
        sanitizer = current_sanitizer()
        if sanitizer is not None:
            sanitizer.check_fresh_verdict(self.graph, v, self.tau, verdict)
        return verdict

    def _fresh_verdict(self, v: int) -> bool:
        # The punctured neighbourhood never leaves slot space (no
        # frozensets, no id round-trips).  The ball stays in BFS order,
        # centre first, which the collapse pops outermost-first.
        kernel = self._kernel
        slots = kernel.ball_slots(v, self.radius)
        self.counters.ball_computations += 1
        self.counters.bfs_expansions += len(slots)
        if len(slots) == 1:
            # An isolated vertex supports no cycles; deleting it is safe.
            return True
        self.counters.span_computations += 1
        return kernel.span_connected_verdict(slots[1:], self.tau)

    def boundary_partitionable(self, boundary_cycles) -> bool:
        """Propositions 2/3 on the engine's *current* graph.

        The answer of :func:`~repro.core.criterion.is_tau_partitionable`
        is cached per graph version and boundary, so repeated criterion
        checks between mutations are free.
        """
        from repro.core.criterion import is_tau_partitionable

        self._sync()
        key = (self.graph.version, tuple(map(tuple, boundary_cycles)))
        if key != self._criterion_key:
            self.counters.span_computations += 1
            self._criterion = is_tau_partitionable(
                self.graph, boundary_cycles, self.tau
            )
            self._criterion_key = key
        return self._criterion

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def fork(self) -> "LocalTopologyEngine":
        """An engine on an independent graph copy with a warm verdict cache.

        Shares the counters object and the tracer with the parent (so
        accounting aggregates), but copies the graph and the verdict cache —
        mutations in the fork leave the parent untouched.  Used by the
        lifetime rotation: each shift schedules on a fork and inherits
        every verdict that is still valid.
        """
        self._sync()
        with observe(self.tracer):
            clone = LocalTopologyEngine(
                self.graph.copy(),
                self.tau,
                counters=self.counters,
                owned=self.owned,
            )
        clone._verdicts = dict(self._verdicts)
        return clone

