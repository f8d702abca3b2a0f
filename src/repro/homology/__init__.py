"""Simplicial homology substrate and the HGC baseline."""

from repro.homology.boundary_ops import (
    ChainBasis,
    boundary_1_columns,
    boundary_2_columns,
    edge_chain_basis,
    vertex_chain_basis,
)
from repro.homology.hgc import (
    HGC_MAX_SENSING_RATIO,
    HGCScheduleResult,
    HGCVerification,
    hgc_schedule,
    hgc_verify,
)
from repro.homology.homology import (
    BettiNumbers,
    betti_numbers,
    first_homology_trivial,
    relative_betti_1,
    relative_first_homology_trivial,
)
from repro.homology.simplicial import (
    FenceSubcomplex,
    RipsComplex,
    Triangle,
    enumerate_triangles,
)

__all__ = [
    "BettiNumbers",
    "ChainBasis",
    "FenceSubcomplex",
    "HGC_MAX_SENSING_RATIO",
    "HGCScheduleResult",
    "HGCVerification",
    "RipsComplex",
    "Triangle",
    "betti_numbers",
    "boundary_1_columns",
    "boundary_2_columns",
    "edge_chain_basis",
    "enumerate_triangles",
    "first_homology_trivial",
    "hgc_schedule",
    "hgc_verify",
    "relative_betti_1",
    "relative_first_homology_trivial",
    "vertex_chain_basis",
]
