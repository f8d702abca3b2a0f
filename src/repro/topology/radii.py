"""Named radius derivations — the single home for the paper's bounds.

Every locality argument in the paper reduces to one constant: the
neighbourhood radius ``k = ceil(tau / 2)`` of Definition 5.  The
deletion radius, the MIS separation and the shard halo band are each a
one-step derivation from ``k``.  Naming each derivation once keeps call
sites reading as the theorem they cite instead of as inline arithmetic
(``(tau + 1) // 2``, ``k + 1``).  The runtime floods spell their TTLs
as ``radius - 1`` at the send site; ``tests/unit/test_runtime.py``
checks that each flood reaches exactly its ball.

Layering: this module must stay a *leaf* (stdlib ``math`` only) so any
layer — ``core``, ``shard``, ``runtime``, ``checks`` — can import it
without cycles.  In particular it must never import ``repro.cycles`` or
``repro.topology.engine``.

========  =====================================  ======================
symbol    meaning                                derivation
========  =====================================  ======================
``tau``   confine size (max hole boundary)       input, ``tau >= 3``
``k``     neighbourhood / deletion radius        ``ceil(tau / 2)``
``m``     MIS separation                         ``k + 1``
========  =====================================  ======================
"""

from __future__ import annotations

import math

__all__ = [
    "neighborhood_radius",
    "deletion_radius",
    "mis_separation",
    "halo_radius",
]


def neighborhood_radius(tau: int) -> int:
    """Definition 5's ``k = ceil(tau / 2)``."""
    if tau < 3:
        raise ValueError("confine size must be at least 3")
    return math.ceil(tau / 2)


def deletion_radius(tau: int) -> int:
    """The deletability verdict's ball radius.

    Theorem 4 evaluates deletability on the punctured ``k``-hop
    neighbourhood; the deletion radius *is* the neighbourhood radius.
    (``repro.core.vpt.deletion_radius`` re-exports this for the public
    API; keep both names so call sites read as the theorem they cite.)
    """
    return neighborhood_radius(tau)


def mis_separation(tau: int) -> int:
    """Hop separation ``m = k + 1`` between concurrently deleted nodes.

    Two vertices at hop distance ``>= k + 1`` have disjoint punctured
    ``k``-balls *after either deletion*, so their verdicts commute and
    the scheduler may delete a whole ``m``-separated MIS per round.
    """
    return deletion_radius(tau) + 1


def halo_radius(tau: int) -> int:
    """The shard halo band radius — exactly ``k`` hops past owned rows.

    A shard must answer deletability for every owned vertex, which reads
    the punctured ``k``-ball; a band of exactly
    ``k = neighborhood_radius(tau)`` foreign hops is therefore both
    sufficient and minimal.  A thinner band truncates some owned ball
    and changes verdicts; a thicker one ships rows no verdict reads,
    which shows up in the pinned ``halo_rows`` of a sharded schedule.
    """
    return neighborhood_radius(tau)
