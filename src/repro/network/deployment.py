"""Node deployments over planar regions.

A deployment places nodes in a *deployment region*; the *target area* that
must be covered is the region shrunk by a periphery band of width at least
``Rc`` (Section III-A), so boundary nodes — those inside the band — always
exist and surround the target.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.network.graph import NetworkGraph
from repro.network.node import Node, Position
from repro.network.topologies import geometric_graph


@dataclass(frozen=True)
class Rectangle:
    """An axis-aligned rectangle ``[x0, x1] x [y0, y1]``."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError("rectangle must have positive width and height")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Position:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def contains(self, p: Position) -> bool:
        return self.x0 <= p[0] <= self.x1 and self.y0 <= p[1] <= self.y1

    def distance_to_border(self, p: Position) -> float:
        """Distance from an interior point to the rectangle's border."""
        return min(
            p[0] - self.x0, self.x1 - p[0], p[1] - self.y0, self.y1 - p[1]
        )

    def shrink(self, margin: float) -> "Rectangle":
        if 2 * margin >= min(self.width, self.height):
            raise ValueError("margin too large for this rectangle")
        return Rectangle(
            self.x0 + margin, self.y0 + margin, self.x1 - margin, self.y1 - margin
        )

    def sample(self, rng: random.Random) -> Position:
        return (
            rng.uniform(self.x0, self.x1),
            rng.uniform(self.y0, self.y1),
        )

    def perimeter_parameter(self, p: Position) -> float:
        """Arclength position of the border point nearest to ``p``.

        Walks the border counter-clockwise from ``(x0, y0)``.  Used to order
        periphery-band nodes into a boundary cycle.
        """
        x, y = p
        x = min(max(x, self.x0), self.x1)
        y = min(max(y, self.y0), self.y1)
        # Pick the border edge nearest to the point; ties are harmless.
        dists = (
            (y - self.y0, 0),
            (self.x1 - x, 1),
            (self.y1 - y, 2),
            (x - self.x0, 3),
        )
        __, side = min(dists)
        if side == 0:
            return x - self.x0
        if side == 1:
            return self.width + (y - self.y0)
        if side == 2:
            return self.width + self.height + (self.x1 - x)
        return 2 * self.width + self.height + (self.y1 - y)


def deploy_uniform(
    count: int, region: Rectangle, rng: random.Random
) -> Dict[int, Position]:
    """``count`` nodes, independently uniform over the region."""
    if count <= 0:
        raise ValueError("node count must be positive")
    return {i: region.sample(rng) for i in range(count)}


@dataclass
class Network:
    """A deployed, connected sensor network instance.

    Bundles everything the experiments need: the connectivity graph, node
    positions (simulator-only ground truth), ranges, and the boundary
    labelling derived from the periphery band.
    """

    graph: NetworkGraph
    positions: Dict[int, Position]
    region: Rectangle
    rc: float
    rs: float
    boundary_band: float
    boundary_nodes: Set[int] = field(default_factory=set)

    @property
    def gamma(self) -> float:
        """The sensing ratio Rc / Rs."""
        return self.rc / self.rs

    @property
    def target_area(self) -> Rectangle:
        return self.region.shrink(self.boundary_band)

    @property
    def internal_nodes(self) -> Set[int]:
        return self.graph.vertex_set() - self.boundary_nodes

    def nodes(self) -> List[Node]:
        return [
            Node(i, self.positions[i], is_boundary=i in self.boundary_nodes)
            for i in sorted(self.graph.vertices())
        ]

    def classify_boundary(self) -> None:
        """Label nodes in the periphery band as boundary nodes."""
        self.boundary_nodes = {
            i
            for i, p in self.positions.items()
            if i in self.graph
            and self.region.distance_to_border(p) <= self.boundary_band
        }


def _require_radius(name: str, value: float) -> None:
    """Raise ``ValueError`` naming ``name`` unless it is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def build_network(
    count: int,
    region: Rectangle,
    rc: float,
    rs: float,
    seed: int = 0,
    boundary_band: Optional[float] = None,
    require_connected: bool = True,
    max_attempts: int = 50,
) -> Network:
    """Deploy a random unit-disk network and keep its giant component.

    Links join every node pair at most ``rc`` apart.  Redeploys (up to
    ``max_attempts`` times) until the giant component contains at least
    95% of the nodes when ``require_connected`` is set, mirroring the
    dense deployments used in the paper's simulations.
    """
    _require_radius("rc", rc)
    _require_radius("rs", rs)
    rng = random.Random(seed)
    band = boundary_band if boundary_band is not None else rc
    for __ in range(max_attempts):
        positions = deploy_uniform(count, region, rng)
        graph = geometric_graph(positions, rc)
        components = graph.connected_components()
        giant = max(components, key=len)
        if not require_connected or len(giant) >= 0.95 * count:
            graph = graph.induced_subgraph(giant)
            positions = {i: positions[i] for i in giant}
            network = Network(
                graph=graph,
                positions=positions,
                region=region,
                rc=rc,
                rs=rs,
                boundary_band=band,
            )
            network.classify_boundary()
            return network
    raise RuntimeError(
        "could not deploy a (near-)connected network; "
        "increase density or relax require_connected"
    )


def network_for_average_degree(
    count: int,
    average_degree: float,
    rc: float = 1.0,
    rs: float = 1.0,
    seed: int = 0,
) -> Network:
    """A square-region network sized so the UDG average degree matches.

    For a UDG over a square of side ``L`` the expected degree is about
    ``count * pi * rc^2 / L^2`` (ignoring border effects); the paper's main
    simulation uses 1600 nodes at average degree ~25.
    """
    if average_degree <= 0:
        raise ValueError("average degree must be positive")
    # rc sizes the region, so check it first; build_network checks rs.
    _require_radius("rc", rc)
    side = math.sqrt(count * math.pi * rc * rc / average_degree)
    region = Rectangle(0.0, 0.0, side, side)
    return build_network(count, region, rc, rs, seed=seed)
