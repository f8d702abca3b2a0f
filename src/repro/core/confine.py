"""Confine coverage: definitions and Proposition 1 thresholds.

A subgraph ``G'`` achieves *tau-confine coverage* when, in every valid
embedding, each point of the target area is surrounded by a cycle of at most
``tau`` hops (Definition 1 of the paper).  The coverage granularity is
controlled by two knobs:

* the confine size ``tau``;
* the sensing ratio ``gamma = Rc / Rs`` between the maximum communication
  range and the sensing range.

Proposition 1 relates them to the quality of coverage (QoC):

* blanket coverage (no holes at all) whenever ``gamma <= 2 sin(pi / tau)``;
* otherwise a partial coverage whose holes have diameter at most
  ``(tau - 2) * Rc`` for ``gamma <= 2``.

For ``gamma`` far above 2 no connectivity-based method can bound hole sizes,
so the library (like the paper) assumes ``gamma <= 2`` by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

#: Beyond this ratio no connectivity-based scheme can bound coverage holes.
MAX_SUPPORTED_SENSING_RATIO = 2.0

#: Confine sizes are simple-cycle lengths, so at least a triangle.
MIN_CONFINE_SIZE = 3


def blanket_sensing_ratio_threshold(tau: int) -> float:
    """Largest sensing ratio for which tau-confine coverage is blanket.

    ``2 sin(pi / tau)``: for tau = 3 this is sqrt(3), for tau = 4 it is
    sqrt(2), and for tau = 6 it is exactly 1.
    """
    if tau < MIN_CONFINE_SIZE:
        raise ValueError(f"confine size must be >= {MIN_CONFINE_SIZE}")
    return 2.0 * math.sin(math.pi / tau)


def hole_diameter_bound(tau: int, rc: float = 1.0) -> float:
    """Worst-case hole diameter of a tau-confine coverage: ``(tau - 2) Rc``."""
    if tau < MIN_CONFINE_SIZE:
        raise ValueError(f"confine size must be >= {MIN_CONFINE_SIZE}")
    if rc <= 0:
        raise ValueError("communication range must be positive")
    return (tau - 2) * rc


def guarantees_blanket(tau: int, gamma: float) -> bool:
    """Does tau-confine coverage guarantee full blanket coverage at gamma?"""
    # A tiny epsilon absorbs floating-point error at the exact thresholds
    # (gamma = sqrt(3) with tau = 3, gamma = 1 with tau = 6, ...).
    return gamma <= blanket_sensing_ratio_threshold(tau) + 1e-12


def max_blanket_tau(gamma: float, tau_cap: int = 64) -> Optional[int]:
    """Largest tau whose confine coverage is blanket at sensing ratio gamma.

    Oracle of Proposition 1's blanket threshold.  Returns ``None`` when
    even triangles cannot guarantee blanket coverage (``gamma >
    sqrt(3)``).  The threshold ``2 sin(pi / tau)`` decreases in ``tau``,
    so the feasible set is a prefix ``{3, ..., tau_max}``.
    """
    if gamma <= 0:
        raise ValueError("sensing ratio must be positive")
    if not guarantees_blanket(MIN_CONFINE_SIZE, gamma):
        return None
    best = MIN_CONFINE_SIZE
    for tau in range(MIN_CONFINE_SIZE + 1, tau_cap + 1):
        if guarantees_blanket(tau, gamma):
            best = tau
        else:
            break
    return best


@dataclass(frozen=True)
class ConfineRequirement:
    """An application-level coverage requirement.

    ``max_hole_diameter`` is the worst-case QoC the application tolerates,
    in the same length unit as ``rc``; zero means full blanket coverage.
    """

    gamma: float
    max_hole_diameter: float = 0.0
    rc: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(
                f"sensing ratio gamma must be finite and positive, got {self.gamma}"
            )
        if not (math.isfinite(self.max_hole_diameter) and self.max_hole_diameter >= 0):
            raise ValueError(
                "hole diameter requirement max_hole_diameter must be finite and "
                f"non-negative, got {self.max_hole_diameter}"
            )
        if not (math.isfinite(self.rc) and self.rc > 0):
            raise ValueError(
                f"communication range rc must be finite and positive, got {self.rc}"
            )

    @property
    def is_blanket(self) -> bool:
        return self.max_hole_diameter == 0.0

    def tau_is_feasible(self, tau: int) -> bool:
        """Does a tau-confine coverage meet this requirement (Prop. 1)?"""
        if guarantees_blanket(tau, self.gamma):
            return True
        if self.gamma > MAX_SUPPORTED_SENSING_RATIO + 1e-12:
            return False
        return hole_diameter_bound(tau, self.rc) <= self.max_hole_diameter + 1e-12

    def feasible_taus(self, tau_cap: int = 16) -> List[int]:
        return [
            tau
            for tau in range(MIN_CONFINE_SIZE, tau_cap + 1)
            if self.tau_is_feasible(tau)
        ]

    def max_feasible_tau(self, tau_cap: int = 16) -> Optional[int]:
        """The largest usable confine size; larger tau means sparser sets.

        The DCC scheduler should run with this tau: the feasible set is the
        union of a blanket prefix (small tau) and a hole-bound prefix, and
        within it larger cycles let the scheduler delete more nodes.
        """
        taus = self.feasible_taus(tau_cap)
        return max(taus) if taus else None


def ghrist_max_hole_diameter(rc: float = 1.0) -> float:
    """Hole-diameter granularity the HGC baseline is locked to.

    Ghrist et al.'s method always uses triangles as the coverage unit, which
    forces the maximum hole diameter down to ``Rc / sqrt(3)`` even when the
    application would tolerate much larger holes (Section III-C).  This is
    Proposition 1's hole bound at tau = 3, the baseline it is checked
    against.
    """
    return rc / math.sqrt(3.0)
