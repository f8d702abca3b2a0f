"""Runtime shadow-oracle sanitizer for live runs.

Enabled via ``REPRO_SANITIZE=1`` (any truthy value; ``warn`` records
without raising), the one switch for every entry point, or
programmatically with :func:`enable_sanitizer`, which also exports the
env var so parallel worker processes sanitize too.  When active:

* every **fresh CSR-kernel verdict** the topology engine computes is
  recomputed on the dict oracle (pure-Python BFS over the adjacency
  sets, :class:`~repro.network.graph.SubgraphView`,
  :class:`~repro.cycles.horton.ShortCycleSpan` with ``use_csr=False``)
  and compared;
* every **verdict-cache hit** is compared against a fresh recompute;
* every **kernel k-ball** is compared against the dict BFS;
* every **kernel coverage-criterion answer** (Propositions 2/3 on the
  boundary-pinned strong-collapse core) is compared against
  ``ShortCycleSpan(use_csr=False)`` on the whole graph;
* after each fresh verdict and criterion answer, the mirror's collapse
  scratch (``_bit``, ``_closed``) must be zero in every cell
  (``kernel-scratch-dirty``);
* every **planar-backbone Delaunay triangulation** is checked with
  Lawson's local test under the exact predicates (``delaunay``).

Checks are counted per kind in :attr:`Sanitizer.checks`; pool workers'
counts fold back into the caller's sanitizer, and the CLI's run-report
summarises the run's account as ``sanitizer.checks.<kind>`` /
``sanitizer.violations`` metrics.  Violations are reported through the
ambient obs tracer (a zero-width ``sanitizer.violation`` span) and
raise :class:`SanitizerError` unless the mode is ``warn``.  All checks are read-only recomputations: a
sanitized run is slower but produces byte-identical schedules, figures
and traces (modulo the sanitizer's own spans).

This module sits *below* :mod:`repro.topology` in the import order (the
engine imports it), so it must never import the topology package — the
oracle is rebuilt here from the network/cycles layers directly.
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro import knobs
from repro.cycles.horton import ShortCycleSpan
from repro.geometry.delaunay import Triangle, incircle_exact, orient2d_exact
from repro.network.node import Position
from repro.obs.tracer import current_tracer


class SanitizerError(AssertionError):
    """A shadow-oracle check failed on a live run."""


class Violation:
    """One recorded divergence between the fast path and its oracle."""

    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: Dict[str, Any]) -> None:
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return f"sanitizer violation [{self.kind}] {pairs}"


# ----------------------------------------------------------------------
# Dict oracles (deliberately independent of the CSR kernel)
# ----------------------------------------------------------------------
def _dict_bfs(graph: Any, source: int, cutoff: Optional[int]) -> Dict[int, int]:
    """Truncated BFS over the raw adjacency sets — no CSR involvement."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        d = dist[u]
        if cutoff is not None and d >= cutoff:
            continue
        for w in sorted(graph.neighbors(u)):
            if w not in dist:
                dist[w] = d + 1
                frontier.append(w)
    return dist


def oracle_ball(graph: Any, v: int, radius: int) -> FrozenSet[int]:
    """The dict-oracle k-ball (includes ``v``)."""
    return frozenset(_dict_bfs(graph, v, radius))


def oracle_deletable(graph: Any, v: int, tau: int) -> bool:
    """Definition 5 on the dict oracle: punctured k-ball, connectivity,
    short-cycle span — every step forced onto the non-kernel path."""
    k = math.ceil(tau / 2)
    neighborhood = frozenset(_dict_bfs(graph, v, k)) - {v}
    if not neighborhood:
        return True
    view = graph.subgraph_view(neighborhood)
    if not view.is_connected():
        return False
    return ShortCycleSpan(view, tau, use_csr=False).spans_cycle_space()


# ----------------------------------------------------------------------
# The sanitizer itself
# ----------------------------------------------------------------------
class Sanitizer:
    """Shadow-checks live computations against the dict oracles.

    ``mode`` is ``"raise"`` (default: first violation raises
    :class:`SanitizerError`) or ``"warn"`` (record and continue).
    Checks and violations are counted per kind in :attr:`checks` /
    :attr:`violations`.
    """

    def __init__(self, mode: str = "raise") -> None:
        if mode not in ("raise", "warn"):
            raise ValueError(f"unknown sanitizer mode {mode!r}")
        self.mode = mode
        self.checks: Dict[str, int] = {}
        self.violations: List[Violation] = []

    # -- accounting ----------------------------------------------------
    def _count(self, kind: str) -> None:
        self.checks[kind] = self.checks.get(kind, 0) + 1

    def _violate(self, kind: str, **detail: Any) -> None:
        violation = Violation(kind, detail)
        self.violations.append(violation)
        tracer = current_tracer()
        tracer.add_span("sanitizer.violation", 0.0, kind=kind, **detail)
        if self.mode == "raise":
            raise SanitizerError(repr(violation))

    @property
    def total_checks(self) -> int:
        return sum(self.checks.values())

    def summary(self) -> str:
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.checks.items())
        )
        return (
            f"sanitizer: {self.total_checks} checks "
            f"({kinds or 'none'}), {len(self.violations)} violations"
        )

    # -- engine hooks --------------------------------------------------
    def check_kernel_scratch(self, graph: Any) -> None:
        """The mirror's collapse scratch is zero between kernel calls.

        The collapse reads every non-member as bit 0 with an empty closed
        neighbourhood, so a cell left nonzero would silently corrupt the
        next verdict.  Reads the graph's cached mirror, never builds one.
        """
        csr = getattr(graph, "_csr", None)
        if csr is None:
            return
        self._count("scratch")
        if any(csr._bit) or any(csr._closed):
            dirty = [
                csr.ids[i]
                for i, (b, c) in enumerate(zip(csr._bit, csr._closed))
                if b or c
            ]
            self._violate("kernel-scratch-dirty", cells=len(dirty), first=dirty[:5])

    def check_fresh_verdict(self, graph: Any, v: int, tau: int, verdict: bool) -> None:
        """A fresh kernel verdict against the full dict-oracle recompute."""
        self.check_kernel_scratch(graph)
        self._count("fresh_verdict")
        expected = oracle_deletable(graph, v, tau)
        if expected != verdict:
            self._violate(
                "kernel-verdict-divergence",
                vertex=v,
                tau=tau,
                kernel=verdict,
                oracle=expected,
            )

    def check_cached_verdict(self, graph: Any, v: int, tau: int, verdict: bool) -> None:
        """A verdict-cache hit against a fresh recompute."""
        self._count("cached_verdict")
        expected = oracle_deletable(graph, v, tau)
        if expected != verdict:
            self._violate(
                "stale-verdict-cache",
                vertex=v,
                tau=tau,
                cached=verdict,
                oracle=expected,
            )

    def check_ball(
        self, graph: Any, v: int, radius: int, ball: Iterable[int]
    ) -> None:
        """A kernel k-ball against the dict BFS."""
        self._count("ball")
        expected = oracle_ball(graph, v, radius)
        got = frozenset(ball)
        if expected != got:
            self._violate(
                "kernel-ball-divergence",
                vertex=v,
                radius=radius,
                missing=sorted(expected - got)[:5],
                extra=sorted(got - expected)[:5],
            )

    def check_criterion(
        self, graph: Any, edges: Sequence[Any], tau: int, answer: bool
    ) -> None:
        """A kernel criterion answer against the whole-graph dict oracle."""
        self.check_kernel_scratch(graph)
        self._count("criterion")
        expected = ShortCycleSpan(graph, tau, use_csr=False).contains_edges(edges)
        if expected != answer:
            self._violate(
                "kernel-criterion-divergence",
                tau=tau,
                edges=len(edges),
                kernel=answer,
                oracle=expected,
            )

    def check_delaunay(
        self, points: Sequence[Position], triangles: Sequence[Triangle]
    ) -> None:
        """A planar-backbone triangulation against Lawson's local test.

        Under the exact (unfiltered) predicates every triangle must be
        strictly counter-clockwise and every interior edge locally
        Delaunay: the apex across it lies on or outside the triangle's
        circumcircle.  A triangulation of all n distinct positions has
        2n - 2 - h triangles (h hull vertices); with that count the local
        test makes the whole triangulation Delaunay.
        """
        self._count("delaunay")
        apex: Dict[Tuple[int, int], int] = {}
        for a, b, c in triangles:
            if orient2d_exact(points[a], points[b], points[c]) <= 0:
                self._violate("delaunay-not-ccw", triangle=(a, b, c))
            apex[(a, b)], apex[(b, c)], apex[(c, a)] = c, a, b
        hull = 0
        for (u, v), w in apex.items():
            x = apex.get((v, u))
            if x is None:
                hull += 1
            elif u < v and incircle_exact(points[u], points[v], points[w], points[x]) > 0:
                self._violate("delaunay-not-local", edge=(u, v), apexes=(w, x))
        distinct = len({(float(x), float(y)) for x, y in points})
        if len(triangles) != 2 * distinct - 2 - hull:
            self._violate(
                "delaunay-count",
                triangles=len(triangles),
                expected=2 * distinct - 2 - hull,
            )

    # -- pool workers -------------------------------------------------
    def mark(self) -> Tuple[Dict[str, int], int]:
        """A snapshot of the account, for :meth:`since`."""
        return dict(self.checks), len(self.violations)

    def since(
        self, mark: Tuple[Dict[str, int], int]
    ) -> Tuple[Dict[str, int], List[Violation]]:
        """The checks and violations recorded after ``mark``."""
        checks, seen = mark
        delta = {
            kind: count - checks.get(kind, 0)
            for kind, count in self.checks.items()
            if count != checks.get(kind, 0)
        }
        return delta, self.violations[seen:]

    def absorb(
        self, checks: Dict[str, int], violations: Sequence[Violation]
    ) -> None:
        """Fold in a pool task's account (:meth:`since` in the worker).

        Only the counts and the violation list move: the task's spans
        already ship with its observation, so nothing is recorded twice.
        A violation raises here in ``raise`` mode, as it would have in
        the worker.
        """
        for kind, count in checks.items():
            self.checks[kind] = self.checks.get(kind, 0) + count
        self.violations.extend(violations)
        if violations and self.mode == "raise":
            raise SanitizerError(repr(violations[0]))

    def assert_clean(self) -> None:
        """Raise (even in ``warn`` mode) if any violation was recorded."""
        if self.violations:
            raise SanitizerError(
                f"{len(self.violations)} sanitizer violations; first: "
                f"{self.violations[0]!r}"
            )


# ----------------------------------------------------------------------
# Process-global activation (env-driven so worker processes inherit it)
# ----------------------------------------------------------------------
_ACTIVE: Optional[Sanitizer] = None


def current_sanitizer() -> Optional[Sanitizer]:
    """The active sanitizer, or ``None`` — the hot-path guard."""
    return _ACTIVE


def enable_sanitizer(mode: Optional[str] = None) -> Sanitizer:
    """Install a fresh sanitizer and export ``REPRO_SANITIZE``.

    Exporting the env var is what lets :class:`ProcessPoolExecutor`
    workers — which import this module fresh — activate their own
    sanitizers; a worker violation in ``raise`` mode propagates to the
    caller through the future's result.
    """
    global _ACTIVE
    if mode is None:
        mode = "raise"
    _ACTIVE = Sanitizer(mode=mode)
    os.environ["REPRO_SANITIZE"] = "warn" if mode == "warn" else "1"
    return _ACTIVE


def disable_sanitizer() -> None:
    """Deactivate and clear the env var (workers spawned later run clean)."""
    global _ACTIVE
    _ACTIVE = None
    os.environ.pop("REPRO_SANITIZE", None)


def _init_from_env() -> None:
    global _ACTIVE
    value = knobs.get_str("REPRO_SANITIZE").strip().lower()
    if value not in knobs.FALSE_WORDS:
        mode = "warn" if value == "warn" else "raise"
        _ACTIVE = Sanitizer(mode=mode)


_init_from_env()
