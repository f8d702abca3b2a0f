"""The four benchmark workloads, driven through each layer's public API.

Every workload is a fixed deployment (the paper's Figure 2 scale, the
Figure 6 GreenOrbs trace, a 10k-node sparse square) plus the schedule's
random priority stream, which is drawn from the run's ``--seed``.  Fixing
the deployment keeps the per-seed spread down to the schedule's own
variance; the seed still changes every MIS draw, so each seed is a
different schedule over the same network.

The stage spans opened here (``bench.*``) are the benchmark's own; with
the null tracer they cost one method call each, so the untraced runs
measure the code as users run it.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.boundary.geometric import outer_boundary_cycle
from repro.core.criterion import is_tau_partitionable
from repro.core.scheduler import ScheduleResult, dcc_schedule
from repro.cycles.horton import ShortCycleSpan
from repro.geometry.coverage_eval import evaluate_coverage
from repro.network.deployment import Rectangle, network_for_average_degree
from repro.network.graph import NetworkGraph
from repro.network.topologies import geometric_graph
from repro.topology.radii import neighborhood_radius
from repro.traces.greenorbs import GreenOrbsConfig, generate_greenorbs_trace

#: deployment seeds: the Figure 2 and Figure 6 experiment defaults
#: (repro.analysis.experiments) and the sharded-scale bench's deployment
FIG2_DEPLOY_SEED = 0
TRACE_SEED = 1
SPARSE_DEPLOY_SEED = 21
SPARSE_NODES = 10_000
SPARSE_DEGREE = 9.0
SPARSE_BAND = 1.0


@dataclass
class Inputs:
    """A ready network: what set-up hands to the solve."""

    graph: NetworkGraph
    positions: Dict[int, Tuple[float, float]]
    protected: Set[int]
    cycle: Optional[List[int]]
    rs: float
    target: Optional[Rectangle]


@dataclass(frozen=True)
class Workload:
    name: str
    #: workloads sharing a family run the same inputs and must produce
    #: the same schedules
    family: str
    taus: Tuple[int, ...]
    #: run the partitionability criterion before and after each schedule
    #: inside the timed solve
    criterion: bool
    #: run it outside the timed region, for the Theorem 5 check only
    criterion_check: bool
    coverage: bool
    shards: Optional[int]
    workers: int
    setup: Callable[[object], Inputs]


@dataclass
class Cell:
    """One schedule cell: a confine size on the workload's network."""

    tau: int
    result: ScheduleResult
    digest: str
    initially: Optional[bool] = None
    finally_: Optional[bool] = None
    covered_fraction: Optional[float] = None
    schedule_s: float = 0.0


def _setup_fig2(tracer) -> Inputs:
    with tracer.trace("bench.network"):
        network = network_for_average_degree(
            1600, 25.0, rc=1.0, rs=1.0, seed=FIG2_DEPLOY_SEED
        )
    with tracer.trace("bench.boundary"):
        cycle = outer_boundary_cycle(network)
    return Inputs(
        graph=network.graph,
        positions=network.positions,
        protected=set(network.boundary_nodes) | set(cycle),
        cycle=cycle,
        rs=network.rs,
        target=network.target_area,
    )


def _setup_trace(tracer) -> Inputs:
    config = GreenOrbsConfig()
    with tracer.trace("bench.network"):
        trace = generate_greenorbs_trace(config, seed=TRACE_SEED)
        network = trace.as_network(rc=config.max_range, rs=config.max_range)
    with tracer.trace("bench.boundary"):
        cycle = outer_boundary_cycle(network)
    return Inputs(
        graph=network.graph,
        positions=network.positions,
        protected=set(cycle),
        cycle=cycle,
        rs=network.rs,
        target=network.target_area,
    )


def _setup_sparse(tracer) -> Inputs:
    with tracer.trace("bench.network"):
        rng = random.Random(SPARSE_DEPLOY_SEED)
        side = math.sqrt(SPARSE_NODES * math.pi / SPARSE_DEGREE)
        positions = {
            v: (rng.uniform(0, side), rng.uniform(0, side))
            for v in range(SPARSE_NODES)
        }
        graph = geometric_graph(positions, 1.0)
    # No outer cycle here: the criterion is off at this scale, so the
    # boundary stage is the protected border band alone.
    with tracer.trace("bench.boundary"):
        far = side - SPARSE_BAND
        protected = {
            v
            for v, (x, y) in positions.items()
            if min(x, y) < SPARSE_BAND or max(x, y) > far
        }
    return Inputs(
        graph=graph,
        positions=positions,
        protected=protected,
        cycle=None,
        rs=1.0,
        target=None,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig2_paper", "fig2_paper", (3, 4), criterion=True,
                 criterion_check=False, coverage=True, shards=None,
                 workers=1, setup=_setup_fig2),
        Workload("trace_fig6", "trace_fig6", (3, 4, 5, 6, 7, 8),
                 criterion=False, criterion_check=True, coverage=False,
                 shards=None, workers=1, setup=_setup_trace),
        Workload("sparse10k_serial", "sparse10k", (4,), criterion=False,
                 criterion_check=False, coverage=False, shards=None,
                 workers=1, setup=_setup_sparse),
        Workload("sparse10k_sharded", "sparse10k", (4,), criterion=False,
                 criterion_check=False, coverage=False, shards=2,
                 workers=2, setup=_setup_sparse),
    )
}


def schedule_rng(workload: Workload, seed: int, tau: int) -> random.Random:
    """The cell's priority stream; one family shares it across workloads."""
    return random.Random(f"{workload.family}/{seed}/tau{tau}")


def digest_order(removed: List[int]) -> str:
    return hashlib.sha256(",".join(map(str, removed)).encode()).hexdigest()[:16]


def edge_digest(graph: NetworkGraph) -> str:
    text = ";".join(f"{u},{v}" for u, v in sorted(graph.edges()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def solve(workload: Workload, inputs: Inputs, graph: NetworkGraph, seed: int,
          tracer) -> List[Cell]:
    """Criterion, schedules and coverage eval, as the workload runs them.

    ``graph`` is a fresh copy of ``inputs.graph`` (no cached CSR mirror),
    so every repetition pays what a first call pays.
    """
    cells = []
    for tau in workload.taus:
        initially = finally_ = covered = None
        if workload.criterion:
            with tracer.trace("bench.criterion", tau=tau):
                initially = is_tau_partitionable(graph, [inputs.cycle], tau)
        start = perf_counter()
        with tracer.trace("bench.schedule", tau=tau):
            result = dcc_schedule(
                graph,
                inputs.protected,
                tau,
                rng=schedule_rng(workload, seed, tau),
                workers=workload.workers,
                shards=workload.shards,
            )
        schedule_s = perf_counter() - start
        if workload.criterion:
            with tracer.trace("bench.criterion", tau=tau):
                finally_ = is_tau_partitionable(
                    result.active, [inputs.cycle], tau
                )
        if workload.coverage:
            with tracer.trace("bench.coverage_eval", tau=tau):
                report = evaluate_coverage(
                    [inputs.positions[v] for v in result.active.vertices()],
                    inputs.rs,
                    inputs.target,
                )
            covered = report.covered_fraction
        cells.append(
            Cell(tau, result, digest_order(result.removed), initially,
                 finally_, covered, schedule_s)
        )
    return cells


def definition5_oracle(graph: NetworkGraph, v: int, tau: int) -> bool:
    """Definition 5 on the dict path: plain-dict BFS for the punctured
    k-ball, then connectivity and the short-cycle span with the CSR
    kernel switched off.  Shares no code with the scheduler's kernel."""
    k = neighborhood_radius(tau)
    seen = {v}
    frontier = [v]
    for __ in range(k):
        reached = []
        for u in frontier:
            for w in graph.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
        frontier = reached
    seen.discard(v)
    if not seen:
        return True
    view = graph.subgraph_view(seen)
    if not view.is_connected():
        return False
    return ShortCycleSpan(view, tau, use_csr=False).spans_cycle_space()
