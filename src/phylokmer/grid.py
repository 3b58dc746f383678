"""Static grid of labeled points with closed-box range min/max queries.

A flat, bottom-up segment tree over the x-sorted points: for n points,
leaf n + i holds point i and node v < n covers the points of nodes 2v and
2v + 1, with no padding of n.  Each node stores its points' ys in order
and doubling tables of running minima of ``sign * label``, so a max grid
is a min grid on negated labels.  A box query maps [x1, x2] to a run of
point indices with two bisects, collects the O(log n) nodes that tile the
run with the bottom-up loop, and answers each in O(1) after a binary
search over its ys: O(log^2 n) overall.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable


class ContextGrid:
    """Immutable point grid answering aggregate queries over closed boxes."""

    def __init__(self, points: Iterable[tuple[int, int, int]], aggregator: str):
        if aggregator not in ("min", "max"):
            raise ValueError(f"aggregator must be 'min' or 'max', got {aggregator!r}")
        self.aggregator = aggregator
        pts = sorted(points)
        for x, y, _ in pts:
            if x < 1 or y < 1:
                raise ValueError(f"point ({x}, {y}) outside 1-based rank space")
        for (x, y, _), (x2, y2, _) in zip(pts, pts[1:]):
            if x == x2 and y == y2:
                raise ValueError(f"duplicate point at ({x}, {y})")
        self.points = tuple(pts)
        self._sign = 1 if aggregator == "min" else -1
        self._xs = [x for x, _, _ in pts]
        self._build()

    def _build(self) -> None:
        """Fill ``_ys[v]`` and ``_tables[v]`` for every node, leaves first.

        Points are ranked by y once (ties in x order); a node's ranks are
        its children's, merged by one sort of two sorted runs.
        """
        pts = self.points
        sign = self._sign
        n = len(pts)
        by_y = sorted(range(n), key=lambda i: pts[i][1])
        y_of = [pts[i][1] for i in by_y]
        label_of = [sign * pts[i][2] for i in by_y]
        ranks: list[list[int] | None] = [None] * (2 * n)
        for rank, i in enumerate(by_y):
            ranks[n + i] = [rank]
        ys: list[list[int]] = [[]] * (2 * n)
        tables: list[list[list[int]]] = [[]] * (2 * n)
        for v in range(2 * n - 1, 0, -1):
            mine = ranks[v]
            if v < n:
                mine = ranks[2 * v] + ranks[2 * v + 1]
                mine.sort()
                ranks[2 * v] = ranks[2 * v + 1] = None
                ranks[v] = mine
            ys[v] = [y_of[r] for r in mine]
            # table[j][i] is the least of labels[i : i + 2**j] in y order.
            table = [[label_of[r] for r in mine]]
            span = 1
            while span * 2 <= len(mine):
                prev = table[-1]
                table.append([a if a < b else b for a, b in zip(prev, prev[span:])])
                span *= 2
            tables[v] = table
        self._ys = ys
        self._tables = tables

    def range_best(self, x1: int, x2: int, y1: int, y2: int) -> int | None:
        """Aggregate label over points in [x1, x2] x [y1, y2]; None if empty."""
        xs = self._xs
        n = len(xs)
        lo = bisect_left(xs, x1) + n
        hi = bisect_right(xs, x2) + n
        nodes = []
        while lo < hi:
            if lo & 1:
                nodes.append(lo)
                lo += 1
            if hi & 1:
                hi -= 1
                nodes.append(hi)
            lo >>= 1
            hi >>= 1
        ys_of = self._ys
        tables = self._tables
        best = None
        for v in nodes:
            ys = ys_of[v]
            a = bisect_left(ys, y1)
            b = bisect_right(ys, y2)
            if a < b:
                j = (b - a).bit_length() - 1
                level = tables[v][j]
                got = level[a]
                other = level[b - (1 << j)]
                if other < got:
                    got = other
                if best is None or got < best:
                    best = got
        return None if best is None else self._sign * best
