"""Cycle-space algebra: GF(2) vectors, Horton MCB, irreducible cycles."""

from repro.cycles.cycle_space import (
    Cycle,
    EdgeIndex,
    cycle_space_dimension,
)
from repro.cycles.gf2 import GF2Basis, gf2_rank, gf2_solve
from repro.cycles.horton import (
    IrreducibleCycleBounds,
    ShortCycleSpan,
    horton_candidate_cycles,
    irreducible_cycle_bounds,
    minimum_cycle_basis,
)
from repro.cycles.relevant import (
    is_relevant_cycle,
    relevant_cycles_exact,
)
from repro.cycles.shortest_paths import ShortestPathTree

__all__ = [
    "Cycle",
    "EdgeIndex",
    "GF2Basis",
    "IrreducibleCycleBounds",
    "ShortCycleSpan",
    "ShortestPathTree",
    "cycle_space_dimension",
    "gf2_rank",
    "gf2_solve",
    "horton_candidate_cycles",
    "irreducible_cycle_bounds",
    "is_relevant_cycle",
    "relevant_cycles_exact",
    "minimum_cycle_basis",
]
