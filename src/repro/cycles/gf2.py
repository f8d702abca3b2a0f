"""GF(2) linear algebra on bitmask integers.

The cycle space of a graph is a vector space over GF(2); we represent its
elements as arbitrary-precision Python integers used as bitmasks.  XOR is
vector addition, and Gaussian elimination reduces to a pivot-indexed
dictionary of reduced rows.  CPython's big-integer XOR runs in C, which makes
this representation the fastest pure-Python option by a wide margin.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


class GF2Basis:
    """An incrementally built, pivot-reduced basis of GF(2) vectors.

    Rows are stored indexed by their leading (highest) set bit.  ``add``
    performs one step of online Gaussian elimination.
    """

    __slots__ = ("_pivots",)

    def __init__(self, vectors: Iterable[int] = ()) -> None:
        self._pivots: Dict[int, int] = {}
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self) -> int:
        """Dimension of the span of all vectors added so far."""
        return len(self._pivots)

    def reduce(self, vector: int) -> int:
        """Reduce ``vector`` against the basis; the residue is returned.

        A zero residue means the vector lies in the span of the basis.
        """
        pivots = self._pivots
        while vector:
            lead = vector.bit_length() - 1
            row = pivots.get(lead)
            if row is None:
                break
            vector ^= row
        return vector

    def add(self, vector: int) -> bool:
        """Insert ``vector``; return ``True`` iff it increased the rank."""
        residue = self.reduce(vector)
        if residue == 0:
            return False
        self._pivots[residue.bit_length() - 1] = residue
        return True

    def contains(self, vector: int) -> bool:
        """``True`` iff ``vector`` is in the span of the basis."""
        return self.reduce(vector) == 0

    def vectors(self) -> List[int]:
        """The reduced basis rows (one per pivot)."""
        return list(self._pivots.values())

    def copy(self) -> "GF2Basis":
        clone = GF2Basis()
        clone._pivots = dict(self._pivots)
        return clone

    def __len__(self) -> int:
        return len(self._pivots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GF2Basis(rank={self.rank})"


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank of a collection of GF(2) bitmask vectors."""
    return GF2Basis(vectors).rank


def gf2_solve(target: int, vectors: List[int]) -> Optional[List[int]]:
    """Express ``target`` as a XOR of a subset of ``vectors``.

    Returns the indices of the chosen subset, or ``None`` when ``target``
    is not in the span.  Runs full elimination with combination tracking,
    so it is meant for small systems (tests, explanations), not hot paths.
    """
    pivots: Dict[int, int] = {}
    combos: Dict[int, int] = {}
    residue_target = target
    target_combo = 0
    for idx, vec in enumerate(vectors):
        combo = 1 << idx
        while vec:
            lead = vec.bit_length() - 1
            if lead in pivots:
                vec ^= pivots[lead]
                combo ^= combos[lead]
            else:
                pivots[lead] = vec
                combos[lead] = combo
                break
    while residue_target:
        lead = residue_target.bit_length() - 1
        if lead not in pivots:
            return None
        residue_target ^= pivots[lead]
        target_combo ^= combos[lead]
    return [i for i in range(len(vectors)) if (target_combo >> i) & 1]
