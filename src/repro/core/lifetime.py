"""Network-lifetime extension: rotating DCC coverage shifts.

The paper motivates confine coverage with energy ("improve the network
lifetime") but stops at computing one sparse coverage set.  The natural
completion, implemented here, is *rotation*: time is divided into shifts;
each shift recomputes a coverage set over the currently-alive nodes with
an energy-aware twist — the scheduler prefers to put *low-energy* nodes to
sleep, spreading duty across the deployment — and the network lives until
the alive nodes can no longer support the coverage criterion.

Energy-aware scheduling reuses the exact VPT rule (so Theorem 5 still
applies shift by shift); only the deletion *order* changes, which affects
who rests, not whether coverage holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.criterion import VertexCycle
from repro.core.scheduler import ScheduleResult
from repro.network.energy import EnergyModel, EnergyState
from repro.network.graph import NetworkGraph
from repro.topology import LocalTopologyEngine


def energy_aware_schedule(
    graph: NetworkGraph,
    protected: Iterable[int],
    tau: int,
    residual: Dict[int, float],
    rng: Optional[random.Random] = None,
    seed: int = 0,
    engine: Optional[LocalTopologyEngine] = None,
) -> ScheduleResult:
    """DCC scheduling that sends the lowest-energy nodes to sleep first.

    Sequential maximal vertex deletion where, at every step, the deletable
    candidate with the least residual energy is removed (ties broken
    randomly).  The fixed point is still a maximal deletion under the same
    VPT rule, so all correctness properties of :func:`dcc_schedule` carry
    over; the bias only redistributes which redundant nodes rest.

    A prebuilt ``engine`` (e.g. a fork of the rotation's persistent engine)
    is consumed in place, inheriting still-valid deletability verdicts from
    earlier shifts; otherwise a fresh engine is built on a copy of
    ``graph``.  Reproducible by default (``random.Random(seed)``).
    """
    rng = rng if rng is not None else random.Random(seed)
    if engine is None:
        engine = LocalTopologyEngine(graph.copy(), tau)
    elif engine.tau != tau:
        raise ValueError("engine was built for a different tau")
    work = engine.graph
    protected_set = set(protected)
    missing = protected_set - work.vertex_set()
    if missing:
        raise KeyError(f"protected nodes not in graph: {sorted(missing)[:5]}")
    removed: List[int] = []
    deletions_per_round: List[int] = []

    while True:
        candidates = [
            v
            for v in work.vertices()
            if v not in protected_set and engine.deletable(v)
        ]
        if not candidates:
            break
        victim = min(
            candidates, key=lambda v: (residual.get(v, 0.0), rng.random())
        )
        engine.delete_vertex(victim)
        removed.append(victim)
        deletions_per_round.append(1)

    return ScheduleResult(
        active=work,
        removed=removed,
        tau=tau,
        rounds=len(deletions_per_round),
        deletions_per_round=deletions_per_round,
        counters=engine.counters,
    )


@dataclass
class ShiftRecord:
    """One shift of the rotation simulation."""

    shift: int
    alive: int
    active: int
    criterion_holds: bool
    min_residual: float


@dataclass
class LifetimeReport:
    """Outcome of a rotation simulation."""

    shifts_survived: int
    always_on_shifts: int
    records: List[ShiftRecord] = field(default_factory=list)
    cause_of_death: str = ""

    @property
    def lifetime_gain(self) -> float:
        """How much longer rotation lives than the always-on baseline."""
        if self.always_on_shifts <= 0:
            raise ValueError("always-on baseline must be positive")
        return self.shifts_survived / self.always_on_shifts

    def format_table(self) -> str:
        lines = [
            f"Lifetime: {self.shifts_survived} shifts with rotation vs "
            f"{self.always_on_shifts} always-on "
            f"({self.lifetime_gain:.2f}x), ended by {self.cause_of_death}"
        ]
        for record in self.records:
            lines.append(
                f"  shift {record.shift:3d}: alive={record.alive:4d} "
                f"active={record.active:4d} criterion={record.criterion_holds} "
                f"min residual={record.min_residual:6.1f}"
            )
        return "\n".join(lines)


def rotation_simulation(
    graph: NetworkGraph,
    boundary_cycles: Sequence[VertexCycle],
    protected: Iterable[int],
    tau: int,
    model: Optional[EnergyModel] = None,
    rng: Optional[random.Random] = None,
    max_shifts: int = 10_000,
    boundary_immortal: bool = True,
    record_every: int = 1,
    seed: int = 0,
) -> LifetimeReport:
    """Simulate rotating coverage shifts until coverage collapses.

    Per shift: (1) schedule an energy-aware coverage set over the alive
    subgraph, (2) the coverage set pays the active cost while everyone
    else sleeps, (3) depleted nodes leave the network.  The simulation
    ends when the boundary sum stops being tau-partitionable in the alive
    subgraph (coverage no longer guaranteed) or when a protected node dies.

    ``boundary_immortal`` models mains-powered or battery-swapped perimeter
    nodes; with it off, the perimeter's own duty bounds the lifetime.

    One :class:`LocalTopologyEngine` persists over the alive graph for the
    whole simulation: node deaths invalidate only their dirty region, the
    per-shift criterion check reuses the version-cached full-graph span,
    and each shift's scheduler runs on a fork that inherits still-valid
    deletability verdicts from previous shifts.
    """
    model = model or EnergyModel()
    rng = rng if rng is not None else random.Random(seed)
    protected_set = set(protected)
    energy = EnergyState(graph.vertices(), model)
    alive = LocalTopologyEngine(graph.copy(), tau)
    work = alive.graph

    report = LifetimeReport(
        shifts_survived=0,
        always_on_shifts=model.always_on_shifts,
    )
    on_boundary = {v for cycle in boundary_cycles for v in cycle}
    for shift in range(1, max_shifts + 1):
        # A dead boundary node takes the boundary cycle with it.
        lost = any(v not in work for v in on_boundary)
        if lost or not alive.boundary_partitionable(boundary_cycles):
            report.cause_of_death = "criterion lost"
            break
        schedule = energy_aware_schedule(
            work, protected_set & work.vertex_set(), tau,
            energy.residual, rng=rng, engine=alive.fork(),
        )
        active = schedule.active.vertex_set()
        died = energy.drain_shift(active)
        if boundary_immortal:
            for node in died & protected_set:
                energy.recharge(node)
            died -= protected_set
        report.shifts_survived = shift
        if shift % record_every == 0 or died:
            residuals = [
                energy.residual_of(v)
                for v in work.vertices()
                if v not in protected_set or not boundary_immortal
            ]
            report.records.append(
                ShiftRecord(
                    shift=shift,
                    alive=len(work),
                    active=len(active),
                    criterion_holds=True,
                    min_residual=min(residuals) if residuals else 0.0,
                )
            )
        if died & protected_set:
            report.cause_of_death = "protected node depleted"
            break
        for node in died:
            if node in work:
                alive.delete_vertex(node)
    else:
        report.cause_of_death = "max shifts reached"
    return report
