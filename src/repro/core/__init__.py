"""The paper's primary contribution: confine coverage, criterion, DCC."""

from repro.core.boundary_repair import (
    RepairedNetwork,
    fill_boundary_cone,
    repair_inner_boundaries,
)
from repro.core.confine import (
    MAX_SUPPORTED_SENSING_RATIO,
    MIN_CONFINE_SIZE,
    ConfineRequirement,
    blanket_sensing_ratio_threshold,
    ghrist_max_hole_diameter,
    guarantees_blanket,
    hole_diameter_bound,
    max_blanket_tau,
)
from repro.core.barrier import (
    BarrierResult,
    MAX_BARRIER_SENSING_RATIO,
    barrier_exists,
    barrier_strength,
    schedule_barrier,
)
from repro.core.lifetime import (
    LifetimeReport,
    ShiftRecord,
    energy_aware_schedule,
    rotation_simulation,
)
from repro.core.criterion import (
    CoverageVerdict,
    boundary_edge_sum,
    cycle_edges,
    find_cycle_partition,
    is_tau_partitionable,
    partition_is_valid,
    verify_confine_coverage,
)
from repro.core.scheduler import (
    ScheduleResult,
    dcc_schedule,
    is_non_redundant,
)
from repro.core.vpt import (
    VoidPreservingTransformation,
    deletable_vertices,
    deletion_radius,
    edge_deletable,
    vertex_deletable,
)

__all__ = [
    "BarrierResult",
    "MAX_BARRIER_SENSING_RATIO",
    "MAX_SUPPORTED_SENSING_RATIO",
    "MIN_CONFINE_SIZE",
    "ConfineRequirement",
    "CoverageVerdict",
    "LifetimeReport",
    "RepairedNetwork",
    "ScheduleResult",
    "VoidPreservingTransformation",
    "blanket_sensing_ratio_threshold",
    "boundary_edge_sum",
    "cycle_edges",
    "barrier_exists",
    "barrier_strength",
    "dcc_schedule",
    "deletable_vertices",
    "energy_aware_schedule",
    "deletion_radius",
    "edge_deletable",
    "fill_boundary_cone",
    "find_cycle_partition",
    "ghrist_max_hole_diameter",
    "guarantees_blanket",
    "hole_diameter_bound",
    "is_non_redundant",
    "is_tau_partitionable",
    "max_blanket_tau",
    "rotation_simulation",
    "ShiftRecord",
    "partition_is_valid",
    "repair_inner_boundaries",
    "schedule_barrier",
    "verify_confine_coverage",
    "vertex_deletable",
]
