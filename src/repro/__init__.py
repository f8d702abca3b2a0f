"""repro — distributed connectivity-based coverage via topological graphs.

A faithful, self-contained reproduction of *"Distributed Coverage in
Wireless Ad Hoc and Sensor Networks by Topological Graph Approaches"*
(Dong, Liu, Liu, Liao — ICDCS 2010).

The package implements the paper's primary contribution — **confine
coverage** with the cycle-partition criterion and the distributed **DCC**
scheduler — together with every substrate it relies on: a GF(2) cycle-space
toolkit with Horton minimum cycle bases, the simplicial-homology **HGC**
baseline, unit-disk network deployment, geometric coverage evaluation,
a message-passing runtime, and a synthetic GreenOrbs RSSI trace generator.

Quickstart::

    import random
    from repro import (
        network_for_average_degree, outer_boundary_cycle, max_blanket_tau,
        dcc_schedule, is_tau_partitionable,
    )

    net = network_for_average_degree(300, 22.0, rc=1.0, rs=1.0, seed=7)
    boundary = outer_boundary_cycle(net)
    protected = set(net.boundary_nodes) | set(boundary)
    tau = max_blanket_tau(net.gamma)  # 6 at gamma = 1 (Proposition 1)
    assert is_tau_partitionable(net.graph, [boundary], tau)
    result = dcc_schedule(net.graph, protected, tau,
                          rng=random.Random(7))
    assert is_tau_partitionable(result.active, [boundary], tau)

See DESIGN.md for the subsystem inventory and EXPERIMENTS.md for the
figure-by-figure reproduction record.
"""

from repro.boundary import outer_boundary_cycle
from repro.core import (
    ConfineRequirement,
    ScheduleResult,
    blanket_sensing_ratio_threshold,
    dcc_schedule,
    deletion_radius,
    find_cycle_partition,
    hole_diameter_bound,
    is_non_redundant,
    is_tau_partitionable,
    max_blanket_tau,
    repair_inner_boundaries,
    verify_confine_coverage,
    vertex_deletable,
)
from repro.cycles import (
    Cycle,
    EdgeIndex,
    ShortCycleSpan,
    irreducible_cycle_bounds,
    minimum_cycle_basis,
)
from repro.geometry import evaluate_coverage
from repro.homology import (
    RipsComplex,
    betti_numbers,
    hgc_schedule,
    hgc_verify,
)
from repro.network import NetworkGraph
from repro.network.deployment import (
    Network,
    Rectangle,
    build_network,
    network_for_average_degree,
)
from repro.runtime import DistributedDCC, distributed_dcc_schedule
from repro.topology import LocalTopologyEngine, TopologyCounters
from repro.traces import GreenOrbsConfig, generate_greenorbs_trace

__version__ = "0.1.0"

__all__ = [
    "ConfineRequirement",
    "Cycle",
    "DistributedDCC",
    "EdgeIndex",
    "GreenOrbsConfig",
    "LocalTopologyEngine",
    "Network",
    "NetworkGraph",
    "Rectangle",
    "RipsComplex",
    "ScheduleResult",
    "ShortCycleSpan",
    "TopologyCounters",
    "betti_numbers",
    "blanket_sensing_ratio_threshold",
    "build_network",
    "dcc_schedule",
    "deletion_radius",
    "distributed_dcc_schedule",
    "evaluate_coverage",
    "find_cycle_partition",
    "generate_greenorbs_trace",
    "hgc_schedule",
    "hgc_verify",
    "hole_diameter_bound",
    "irreducible_cycle_bounds",
    "is_non_redundant",
    "is_tau_partitionable",
    "max_blanket_tau",
    "minimum_cycle_basis",
    "network_for_average_degree",
    "outer_boundary_cycle",
    "repair_inner_boundaries",
    "verify_confine_coverage",
    "vertex_deletable",
]
