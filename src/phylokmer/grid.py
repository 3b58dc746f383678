"""Static grid of labeled points with closed-box range min/max queries.

Balanced decomposition over x: each node covers a contiguous run of the
x-sorted points and stores them ordered by y together with doubling tables
of running aggregates, so a box query decomposes into O(log) nodes answered
in O(1) each after a binary search, O(log^2) overall.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import gt, lt
from typing import Iterable, Sequence


class _GridNode:
    __slots__ = ("x_min", "x_max", "ys", "levels", "left", "right")

    def __init__(self, x_min: int, x_max: int, ys: list[int], labels: list[int], better):
        self.x_min = x_min
        self.x_max = x_max
        self.ys = ys
        # levels[j][i] aggregates labels[i : i + 2**j] in y order.  ``better``
        # is operator.lt or gt: a comparison per pair costs a fraction of a
        # two-argument min() or max() call.
        levels = [labels]
        span = 1
        while span * 2 <= len(labels):
            prev = levels[-1]
            levels.append([a if better(a, b) else b for a, b in zip(prev, prev[span:])])
            span *= 2
        self.levels = levels
        self.left: _GridNode | None = None
        self.right: _GridNode | None = None


class ContextGrid:
    """Immutable point grid answering aggregate queries over closed boxes."""

    def __init__(self, points: Iterable[tuple[int, int, int]], aggregator: str):
        if aggregator not in ("min", "max"):
            raise ValueError(f"aggregator must be 'min' or 'max', got {aggregator!r}")
        self.aggregator = aggregator
        self._pick = min if aggregator == "min" else max
        pts = sorted(points)
        seen: set[tuple[int, int]] = set()
        for x, y, _ in pts:
            if x < 1 or y < 1:
                raise ValueError(f"point ({x}, {y}) outside 1-based rank space")
            if (x, y) in seen:
                raise ValueError(f"duplicate point at ({x}, {y})")
            seen.add((x, y))
        self.points = tuple(pts)
        self.x_size = max((x for x, _, _ in pts), default=0)
        self.y_size = max((y for _, y, _ in pts), default=0)
        self._root = self._build(pts) if pts else None

    def _build(self, pts: Sequence[tuple[int, int, int]]) -> _GridNode:
        """Split the x-sorted ``pts`` in halves; one sort by y serves every node.

        A node's ids are its parent's, filtered by the split index.  The sort
        is stable and ids follow (x, y) order, so ties in y stay in x order.
        """
        better = lt if self.aggregator == "min" else gt

        def make(lo: int, hi: int, by_y: list[int]) -> _GridNode:
            node = _GridNode(
                pts[lo][0],
                pts[hi - 1][0],
                [pts[i][1] for i in by_y],
                [pts[i][2] for i in by_y],
                better,
            )
            if hi - lo > 1:
                mid = (lo + hi) // 2
                node.left = make(lo, mid, [i for i in by_y if i < mid])
                node.right = make(mid, hi, [i for i in by_y if i >= mid])
            return node

        return make(0, len(pts), sorted(range(len(pts)), key=lambda i: pts[i][1]))

    def _node_best(self, node: _GridNode, y1: int, y2: int) -> int | None:
        lo = bisect_left(node.ys, y1)
        hi = bisect_right(node.ys, y2)
        if lo >= hi:
            return None
        j = (hi - lo).bit_length() - 1
        level = node.levels[j]
        return self._pick(level[lo], level[hi - (1 << j)])

    def range_best(self, x1: int, x2: int, y1: int, y2: int) -> int | None:
        """Aggregate label over points in [x1, x2] x [y1, y2]; None if empty."""
        if self._root is None or x1 > x2 or y1 > y2:
            return None
        best = None
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.x_min > x2 or node.x_max < x1:
                continue
            if x1 <= node.x_min and node.x_max <= x2:
                got = self._node_best(node, y1, y2)
                if got is not None:
                    best = got if best is None else self._pick(best, got)
            elif node.left is not None:
                stack.append(node.left)
                stack.append(node.right)
            # a leaf is always fully inside or fully outside its x test
        return best
