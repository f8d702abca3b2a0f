"""Canonical synthetic topologies used by tests, examples and benchmarks.

The star of this module is :func:`mobius_band_network` — the paper's
Figure 1: a network whose Rips complex triangulates a Möbius band.  Its
outer boundary is the sum of all triangles (hence 3-partitionable, so the
cycle-partition criterion certifies coverage), yet its first homology group
is non-trivial (the core circle does not bound), so the homology-group
criterion of HGC wrongly reports a coverage hole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.network.graph import NetworkGraph
from repro.network.node import Position, distance


def grid_neighbor_pairs(
    positions: Dict[int, Position], radius: float
) -> List[Tuple[int, int]]:
    """All unordered node pairs within ``radius``, sorted.

    A uniform grid spatial index with ``radius``-sized cells: each node
    is tested only against nodes in its own and the eight adjacent
    cells, so the pair scan is near linear in the node count for
    bounded-density deployments (the O(n^2) all-pairs loop caps out
    around 10k nodes; this constructs 100k+).  The returned list is
    sorted ``(u, v)`` with ``u < v`` — independent of bucket layout, so
    consumers iterate identically to an all-pairs scan.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    buckets: Dict[Tuple[int, int], List[int]] = {}
    for node, (x, y) in positions.items():
        buckets.setdefault((int(x // radius), int(y // radius)), []).append(node)
    pairs: List[Tuple[int, int]] = []
    for (cx, cy), nodes in buckets.items():
        neighbor_cells = [
            buckets.get((cx + dx, cy + dy), [])
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        ]
        for u in nodes:
            pu = positions[u]
            for cell_nodes in neighbor_cells:
                for v in cell_nodes:
                    if v <= u:
                        continue
                    if distance(pu, positions[v]) <= radius:
                        pairs.append((u, v))
    pairs.sort()
    return pairs


def geometric_graph(
    positions: Dict[int, Position], radius: float
) -> NetworkGraph:
    """The unit-disk connectivity graph of a positioned deployment.

    A link joins every node pair at most ``radius`` apart; edges are
    added in sorted pair order.
    """
    graph = NetworkGraph(positions.keys())
    for u, v in grid_neighbor_pairs(positions, radius):
        graph.add_edge(u, v)
    return graph


@dataclass
class MobiusBandNetwork:
    """The Figure-1 network: an 8-vertex rim double-covering a 4-vertex core."""

    graph: NetworkGraph
    outer_boundary: List[int]
    core_cycle: List[int]
    triangles: List[Tuple[int, int, int]]


def mobius_band_network(rim_size: int = 8) -> MobiusBandNetwork:
    """A triangulated Möbius band with ``rim_size`` boundary vertices.

    ``rim_size`` must be even and at least 8; the core circle has
    ``rim_size / 2`` vertices and the rim winds around it twice.  Vertices
    ``0 .. rim_size-1`` are the rim (the paper's ``a..h``), vertices
    ``rim_size ..`` are the core (the paper's ``1..4``).
    """
    if rim_size < 8 or rim_size % 2:
        raise ValueError("rim_size must be an even integer >= 8")
    core_size = rim_size // 2
    rim = list(range(rim_size))
    core = [rim_size + j for j in range(core_size)]

    graph = NetworkGraph(rim + core)
    triangles: List[Tuple[int, int, int]] = []

    def core_at(i: int) -> int:
        return core[i % core_size]

    for i in range(rim_size):
        nxt = rim[(i + 1) % rim_size]
        graph.add_edge(rim[i], nxt)               # rim edge
        graph.add_edge(rim[i], core_at(i))         # vertical edge
        graph.add_edge(rim[i], core_at(i + 1))     # diagonal edge
    for j in range(core_size):
        graph.add_edge(core[j], core[(j + 1) % core_size])  # core edge

    for i in range(rim_size):
        nxt = rim[(i + 1) % rim_size]
        triangles.append(tuple(sorted((rim[i], nxt, core_at(i + 1)))))
        triangles.append(tuple(sorted((rim[i], core_at(i), core_at(i + 1)))))

    return MobiusBandNetwork(
        graph=graph,
        outer_boundary=rim,
        core_cycle=list(core),
        triangles=triangles,
    )


@dataclass
class GridNetwork:
    """A synthetic grid with positions and an explicit outer boundary cycle."""

    graph: NetworkGraph
    positions: Dict[int, Position]
    outer_boundary: List[int]


def triangulated_grid(
    columns: int, rows: int, spacing: float = 1.0
) -> GridNetwork:
    """A ``columns x rows`` grid with one diagonal per cell (triangular mesh).

    Every inner face is a triangle, so the topology is 3-confine-coverable;
    the outer boundary is the grid's perimeter cycle.
    """
    if columns < 3 or rows < 3:
        raise ValueError("grid needs at least 3x3 nodes")

    def nid(r: int, c: int) -> int:
        return r * columns + c

    graph = NetworkGraph()
    positions: Dict[int, Position] = {}
    for r in range(rows):
        for c in range(columns):
            graph.add_vertex(nid(r, c))
            positions[nid(r, c)] = (c * spacing, r * spacing)
    for r in range(rows):
        for c in range(columns):
            if c + 1 < columns:
                graph.add_edge(nid(r, c), nid(r, c + 1))
            if r + 1 < rows:
                graph.add_edge(nid(r, c), nid(r + 1, c))
            if c + 1 < columns and r + 1 < rows:
                graph.add_edge(nid(r, c), nid(r + 1, c + 1))

    boundary = (
        [nid(0, c) for c in range(columns)]
        + [nid(r, columns - 1) for r in range(1, rows)]
        + [nid(rows - 1, c) for c in range(columns - 2, -1, -1)]
        + [nid(r, 0) for r in range(rows - 2, 0, -1)]
    )
    return GridNetwork(graph=graph, positions=positions, outer_boundary=boundary)


def square_grid(columns: int, rows: int, spacing: float = 1.0) -> GridNetwork:
    """A plain grid (no diagonals): every inner face is a 4-cycle."""
    mesh = triangulated_grid(columns, rows, spacing)
    graph = NetworkGraph(mesh.graph.vertices())
    for u, v in mesh.graph.edges():
        ru, cu = divmod(u, columns)
        rv, cv = divmod(v, columns)
        if abs(ru - rv) + abs(cu - cv) == 1:  # keep axis edges only
            graph.add_edge(u, v)
    return GridNetwork(
        graph=graph,
        positions=mesh.positions,
        outer_boundary=mesh.outer_boundary,
    )


@dataclass
class AnnulusNetwork:
    """Two concentric boundary cycles with a triangulated band between them."""

    graph: NetworkGraph
    positions: Dict[int, Position]
    outer_boundary: List[int]
    inner_boundary: List[int]


def annulus_network(
    outer_size: int = 16,
    rings: int = 3,
    outer_radius: float = 4.0,
    inner_radius: float = 1.5,
) -> AnnulusNetwork:
    """Concentric rings of equal size, triangulated between neighbours.

    Models a multiply-connected target area (a hole in the middle): the
    inner ring is an inner boundary that should be cone-filled before
    scheduling.
    """
    if outer_size < 4 or rings < 2:
        raise ValueError("need at least 4 nodes per ring and 2 rings")
    graph = NetworkGraph()
    positions: Dict[int, Position] = {}
    ring_ids: List[List[int]] = []
    for ring in range(rings):
        radius = outer_radius - (outer_radius - inner_radius) * ring / (rings - 1)
        ids = []
        for i in range(outer_size):
            node = ring * outer_size + i
            angle = 2 * math.pi * i / outer_size
            graph.add_vertex(node)
            positions[node] = (radius * math.cos(angle), radius * math.sin(angle))
            ids.append(node)
        ring_ids.append(ids)
    for ids in ring_ids:
        for i in range(outer_size):
            graph.add_edge(ids[i], ids[(i + 1) % outer_size])
    for ring in range(rings - 1):
        a, b = ring_ids[ring], ring_ids[ring + 1]
        for i in range(outer_size):
            graph.add_edge(a[i], b[i])
            graph.add_edge(a[i], b[(i + 1) % outer_size])
    return AnnulusNetwork(
        graph=graph,
        positions=positions,
        outer_boundary=list(ring_ids[0]),
        inner_boundary=list(ring_ids[-1]),
    )


def cycle_graph(length: int) -> NetworkGraph:
    """A bare cycle of the given length."""
    if length < 3:
        raise ValueError("cycle length must be at least 3")
    return NetworkGraph(
        range(length), [(i, (i + 1) % length) for i in range(length)]
    )


def wheel_graph(rim: int) -> NetworkGraph:
    """A hub joined to every vertex of a rim cycle (all faces triangles)."""
    graph = cycle_graph(rim)
    hub = rim
    graph.add_vertex(hub)
    for i in range(rim):
        graph.add_edge(hub, i)
    return graph
