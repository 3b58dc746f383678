"""Constant-time lowest common ancestor queries over a PhyloTree.

Euler tour with first occurrences, reduced to range-minimum over tour
depths via a doubling table of (depth, vertex) pairs.  Build is
O(V log V); queries are O(1).  ``doubling_table`` also builds the grid's
tables over block minima.
"""
from __future__ import annotations

from .model import PhyloTree


class LcaStructure:
    """Immutable LCA index; vertices are the tree's 1-based numbers."""

    def __init__(self, tree: PhyloTree):
        count = tree.vertex_count
        if count == 0:
            raise ValueError("empty tree")
        first = [0] * (count + 1)
        tour: list[tuple[int, int]] = []
        # Euler tour, iterative: re-visit a vertex after each child subtree.
        stack: list[tuple[int, int, int]] = [(tree.root, 0, 0)]
        while stack:
            vertex, depth, child_idx = stack.pop()
            if child_idx == 0:
                first[vertex] = len(tour)
            tour.append((depth, vertex))
            children = tree.children[vertex]
            if child_idx < len(children):
                stack.append((vertex, depth, child_idx + 1))
                stack.append((children[child_idx], depth + 1, 0))

        self._first = first
        self._levels = doubling_table(tour)
        self._count = count

    def query(self, u: int, v: int) -> int:
        if not (1 <= u <= self._count and 1 <= v <= self._count):
            raise ValueError(f"vertices must lie in 1..{self._count}")
        lo = self._first[u]
        hi = self._first[v]
        if lo > hi:
            lo, hi = hi, lo
        j = (hi - lo + 1).bit_length() - 1
        level = self._levels[j]
        a = level[lo]
        b = level[hi - (1 << j) + 1]
        return (a if a < b else b)[1]


def doubling_table(level: list) -> list[list]:
    """``table[d][i]`` is the least of ``level[i : i + 2**d]``, for every d
    with ``2**d <= len(level)``; ``table[0]`` is ``level`` itself."""
    table = [level]
    span = 1
    while span * 2 <= len(table[0]):  # the first level's length: later ones shrink
        level = [a if a < b else b for a, b in zip(level, level[span:])]
        table.append(level)
        span *= 2
    return table


def build_lca(tree: PhyloTree) -> LcaStructure:
    return LcaStructure(tree)


def lca(structure: LcaStructure, u: int, v: int) -> int:
    """Vertex number of the lowest common ancestor of u and v."""
    return structure.query(u, v)
