"""Deterministic BFS shortest-path trees with LCA queries.

Horton's minimum-cycle-basis algorithm builds one shortest-path tree per
vertex and keeps the candidate cycle ``C(v, x, y)`` only when the least
common ancestor of ``x`` and ``y`` in the tree rooted at ``v`` is ``v``
itself (Algorithm 1 of the paper).  Ties between equal-length shortest paths
are broken towards the smallest vertex id, which keeps the trees consistent
across roots — the standard device that preserves Horton's guarantee that
the candidate set contains a minimum cycle basis.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.network.graph import NetworkGraph


class ShortestPathTree:
    """A BFS tree rooted at ``root`` with smallest-id tie-breaking."""

    __slots__ = ("root", "parent", "depth")

    def __init__(
        self, graph: NetworkGraph, root: int, cutoff: Optional[int] = None
    ) -> None:
        self.root = root
        self.parent: Dict[int, int] = {root: root}
        self.depth: Dict[int, int] = {root: 0}
        frontier = deque([root])
        while frontier:
            u = frontier.popleft()
            d = self.depth[u]
            if cutoff is not None and d >= cutoff:
                continue
            # Sorted iteration makes parent choice deterministic: a vertex is
            # adopted by the smallest-id neighbour at the previous level.
            for w in sorted(graph.neighbors(u)):
                if w not in self.parent:
                    self.parent[w] = u
                    self.depth[w] = d + 1
                    frontier.append(w)

    def __contains__(self, v: int) -> bool:
        return v in self.parent

    def path_to_root(self, v: int) -> List[int]:
        """Vertices from ``v`` up to (and including) the root."""
        path = [v]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path

    def lca(self, x: int, y: int) -> int:
        """Least common ancestor of ``x`` and ``y`` in the tree."""
        dx, dy = self.depth[x], self.depth[y]
        while dx > dy:
            x = self.parent[x]
            dx -= 1
        while dy > dx:
            y = self.parent[y]
            dy -= 1
        while x != y:
            x = self.parent[x]
            y = self.parent[y]
        return x

    def is_tree_edge(self, u: int, v: int) -> bool:
        return self.parent.get(u) == v or self.parent.get(v) == u
