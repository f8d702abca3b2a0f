"""Ground-truth boundary cycle extraction from the valid embedding.

The paper *assumes* every node knows whether it is a boundary node (located
in the periphery band) — an assumption shared by all existing
connectivity-based coverage methods — and finds boundaries with its
companion fine-grained recognition algorithm [13].  In the simulator we
have the embedding, so the boundary labelling is exact; this module also
constructs an explicit *outer boundary cycle* ``C_outer`` through the band,
which the cycle-partition criterion consumes.

Construction: order band nodes by their position along the deployment
region's perimeter, stitch consecutive ones with shortest paths inside the
band subgraph, splice the closed walk into a simple cycle, and verify with
the winding number that the cycle actually encloses the target area.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set

from repro.checks.sanitizer import current_sanitizer
from repro.geometry.delaunay import delaunay_triangles
from repro.network.deployment import Network
from repro.network.graph import Edge, NetworkGraph, canonical_edge
from repro.network.node import Position

#: perimeter rotations the stitching fallback tries before giving up
_STITCH_ROTATIONS = 8


def winding_number(polygon: Sequence[Position], point: Position) -> float:
    """Winding number of a closed polygon around a point (in turns)."""
    total = 0.0
    px, py = point
    n = len(polygon)
    for i in range(n):
        ax, ay = polygon[i]
        bx, by = polygon[(i + 1) % n]
        angle_a = math.atan2(ay - py, ax - px)
        angle_b = math.atan2(by - py, bx - px)
        delta = angle_b - angle_a
        while delta > math.pi:
            delta -= 2 * math.pi
        while delta < -math.pi:
            delta += 2 * math.pi
        total += delta
    return total / (2 * math.pi)


def polygon_encloses(polygon: Sequence[Position], point: Position) -> bool:
    return abs(winding_number(polygon, point)) > 0.5


def _simplify_closed_walk(walk: Sequence[int]) -> List[int]:
    """Loop-erase a closed walk into a simple cycle.

    ``walk`` is closed (the edge from the last vertex back to the first is
    implicit).  Whenever a vertex repeats, the excursion since its first
    occurrence is spliced out.  Perimeter-ordered stitching only produces
    short back-tracking excursions, so loop erasure preserves the enclosing
    cycle; the winding-number check in the caller guards against the
    pathological case where a large loop is erased.
    """
    result: List[int] = []
    position: Dict[int, int] = {}
    for vertex in walk:
        seen_at = position.get(vertex)
        if seen_at is not None:
            for dropped in result[seen_at + 1:]:
                position.pop(dropped, None)
            del result[seen_at + 1:]
        else:
            position[vertex] = len(result)
            result.append(vertex)
    return result


def _extract_enclosing_cycle(
    walk: Sequence[int],
    positions: Dict[int, Position],
    probes: Sequence[Position],
) -> Optional[List[int]]:
    """Extract from a closed walk a simple cycle enclosing probe points.

    Outer-face walks legitimately repeat vertices (cut vertices; bridges
    are traversed twice).  Whenever a vertex repeats, the excursion since
    its first occurrence is itself a simple closed polygon: if it winds
    around a majority of the probe points it *is* the enclosing cycle,
    otherwise it is a spike or ear and is spliced out.  Several probes make
    the test robust to non-convex rims whose notches may contain any single
    reference point.
    """
    if not probes:
        return None

    def encloses_most(cycle: Sequence[int]) -> bool:
        polygon = [positions[v] for v in cycle]
        enclosed = sum(
            1 for p in probes if abs(winding_number(polygon, p)) > 0.5
        )
        return 2 * enclosed > len(probes)

    result: List[int] = []
    position: Dict[int, int] = {}
    for vertex in walk:
        seen_at = position.get(vertex)
        if seen_at is not None:
            excursion = result[seen_at:]
            if len(excursion) >= 3 and encloses_most(excursion):
                return excursion
            for dropped in result[seen_at + 1:]:
                position.pop(dropped, None)
            del result[seen_at + 1:]
        else:
            position[vertex] = len(result)
            result.append(vertex)
    if len(result) >= 3 and encloses_most(result):
        return result
    return None


def trace_outer_face(
    graph: NetworkGraph, positions: Dict[int, Position]
) -> List[int]:
    """Trace the outer face of an embedded graph (right-hand rule).

    Starting from the bottom-most vertex, repeatedly take the next edge in
    clockwise rotational order after the reversed incoming edge.  For a
    planar drawing this walks the outer rim; the closed walk is then
    reduced to the simple cycle enclosing most of a deterministic sample
    of the node positions themselves.
    """
    if len(graph) < 3:
        raise RuntimeError("graph too small to have an outer face")
    start = min(graph.vertices(), key=lambda v: (positions[v][1], positions[v][0]))
    if not graph.neighbors(start):
        raise RuntimeError("outer-face start vertex is isolated")

    def angle(a: int, b: int) -> float:
        ax, ay = positions[a]
        bx, by = positions[b]
        return math.atan2(by - ay, bx - ax)

    # First step: pretend we arrived at the bottom-most vertex from due
    # south; the right-hand rule below then leaves along the most easterly
    # neighbour, starting a counter-clockwise walk of the outer rim.
    south = -math.pi / 2.0
    first = min(
        graph.neighbors(start),
        key=lambda w: ((angle(start, w) - south) % (2 * math.pi))
        or 2 * math.pi,
    )
    # A deterministic spread of actual node positions: unlike the
    # centroid these are guaranteed to lie in occupied space, not in a
    # notch of a non-convex rim.
    sample = sorted(graph.vertices())
    stride = max(1, len(sample) // 24)
    probes = [positions[v] for v in sample[::stride]]

    walk = [start]
    edge = (start, first)
    max_steps = 4 * graph.num_edges() + 8
    for __ in range(max_steps):
        u, v = edge
        walk.append(v)
        back = angle(v, u)
        # Next edge: smallest strictly-positive CCW rotation from the
        # reversed incoming edge keeps the exterior on the right.
        next_vertex = min(
            graph.neighbors(v),
            key=lambda w: ((angle(v, w) - back) % (2 * math.pi))
            or 2 * math.pi,
        )
        edge = (v, next_vertex)
        if edge == (start, first):
            cycle = _extract_enclosing_cycle(walk, positions, probes)
            if cycle is None:
                raise RuntimeError(
                    "outer-face walk closed without enclosing the network"
                )
            return cycle
    raise RuntimeError("outer-face trace did not close")


def planar_backbone(
    graph: NetworkGraph, positions: Dict[int, Position]
) -> NetworkGraph:
    """The planar subgraph: communication links that are Delaunay edges.

    Face tracing is only well-defined on planar drawings; crossing
    communication links make the raw graph's rotation system wander.  The
    exact Delaunay triangulation of the node positions
    (:mod:`repro.geometry.delaunay`) is planar and spans every node, so its
    intersection with the communication graph is a planar spanning
    subgraph whose outer face hugs the deployment rim.  Of nodes sharing
    one position, all but the lowest id are left isolated.  Raises
    ``RuntimeError`` when the positions span no triangle.
    """
    ids = sorted(graph.vertices())
    points = [positions[v] for v in ids]
    triangles = delaunay_triangles(points)
    sanitizer = current_sanitizer()
    if sanitizer is not None:
        sanitizer.check_delaunay(points, triangles)
    links: Set[Edge] = set()
    for triangle in triangles:
        a, b, c = (ids[i] for i in triangle)
        for u, v in ((a, b), (a, c), (b, c)):
            if graph.has_edge(u, v):
                links.add(canonical_edge(u, v))
    return NetworkGraph(ids, sorted(links))


def outer_boundary_cycle(network: Network) -> List[int]:
    """An outer boundary cycle through the periphery band.

    Returns the cycle as a vertex list (closing edge implicit).  The
    primary method traces the outer face of the planar Delaunay backbone of
    the embedding; if that fails the perimeter-ordered stitching fallback
    is tried.  Raises ``RuntimeError`` when no enclosing simple cycle
    exists — in practice only for deployments too sparse to contain a
    connected boundary band, which the paper's model excludes.
    """
    target_center = network.region.center
    try:
        backbone = planar_backbone(network.graph, network.positions)
        giant = max(backbone.connected_components(), key=len)
        backbone = backbone.induced_subgraph(giant)
        cycle = trace_outer_face(backbone, network.positions)
        if len(cycle) >= 3:
            polygon = [network.positions[v] for v in cycle]
            if polygon_encloses(polygon, target_center):
                return cycle
    except RuntimeError:
        pass

    band_nodes = sorted(network.boundary_nodes)
    if len(band_nodes) < 3:
        raise RuntimeError("periphery band has fewer than three nodes")
    band_graph = network.graph.induced_subgraph(band_nodes)
    components = band_graph.connected_components()
    band_component = max(components, key=len)
    band_graph = band_graph.induced_subgraph(band_component)

    region = network.region
    ordered = sorted(
        band_component,
        key=lambda v: region.perimeter_parameter(network.positions[v]),
    )

    for rotation in range(_STITCH_ROTATIONS):
        shift = (rotation * len(ordered)) // _STITCH_ROTATIONS
        sequence = ordered[shift:] + ordered[:shift]
        cycle = _stitch_cycle(band_graph, sequence)
        if cycle is None or len(cycle) < 3:
            continue
        polygon = [network.positions[v] for v in cycle]
        if polygon_encloses(polygon, target_center):
            return cycle
    raise RuntimeError("failed to stitch an enclosing outer boundary cycle")


def _stitch_cycle(
    band_graph: NetworkGraph, ordered: Sequence[int]
) -> Optional[List[int]]:
    """Join perimeter-ordered nodes with shortest paths into a simple cycle."""
    walk: List[int] = []
    n = len(ordered)
    for i in range(n):
        a, b = ordered[i], ordered[(i + 1) % n]
        path = band_graph.shortest_path(a, b)
        if path is None:
            return None
        walk.extend(path[:-1])
    cycle = _simplify_closed_walk(walk)
    if len(cycle) < 3:
        return None
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not band_graph.has_edge(a, b):
            return None
    return cycle
