"""Static grid of labeled points with closed-box range min/max queries.

The grid is laid out on a family of x-intervals.  Each interval [lo, hi]
is a node holding the ys of the points with lo <= x <= hi, in order, and
doubling tables of running minima of ``sign * label`` over them, so a max
grid is a min grid on negated labels.  A box whose x-range is a node is
answered by that node alone: a dict lookup, two bisects on its ys and two
table reads.  Any other box is tiled from the left: at the next point's x,
the longest node starting there that ends by x2, until x2.

The engine passes the intervals of its suffix trie's nodes, the x-ranges
of every box it asks for.  Without them the grid halves its distinct xs
top-down, so a tiled box takes O(log n) nodes, each O(log n).  Either way
every distinct x also gets a node of its own, so tiling reaches every
point.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from typing import Iterable


class ContextGrid:
    """Immutable point grid answering aggregate queries over closed boxes."""

    def __init__(
        self,
        points: Iterable[tuple[int, int, int]],
        aggregator: str,
        intervals: Iterable[tuple[int, int]] | None = None,
    ):
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
        family = [(x, x) for x in self._xs]
        if intervals is None:
            distinct = sorted(set(self._xs))
            halves = [(0, len(distinct))] if distinct else []
            for a, b in halves:  # grows while it is read: breadth-first halving
                family.append((distinct[a], distinct[b - 1]))
                if b - a > 1:
                    mid = (a + b) // 2
                    halves += [(a, mid), (mid, b)]
        else:
            family += intervals
        self._build(family)

    def _build(self, family: list[tuple[int, int]]) -> None:
        """Fill ``_nodes[lo, hi]`` with (ys, tables) for every interval,
        once each.

        Points are ranked by y once (ties in x order); a node sorts the
        ranks of its x-run of points, so its ys and labels come in y order.
        """
        pts = self.points
        sign = self._sign
        xs = self._xs
        by_y = sorted(range(len(pts)), key=lambda i: pts[i][1])
        y_of = [pts[i][1] for i in by_y]
        label_of = [sign * pts[i][2] for i in by_y]
        rank = [0] * len(pts)
        for r, i in enumerate(by_y):
            rank[i] = r
        nodes = {}
        for lo, hi in family:
            if (lo, hi) in nodes:
                continue
            mine = rank[bisect_left(xs, lo) : bisect_right(xs, hi)]
            mine.sort()
            # table[j][i] is the least of labels[i : i + 2**j] in y order.
            table = [[label_of[r] for r in mine]]
            span = 1
            while span * 2 <= len(mine):
                prev = table[-1]
                table.append([a if a < b else b for a, b in zip(prev, prev[span:])])
                span *= 2
            nodes[lo, hi] = ([y_of[r] for r in mine], table)
        self._nodes = nodes

    @cached_property
    def _keys(self) -> list[tuple[int, int]]:
        """The node intervals in order, for tiling; sorted on first use."""
        return sorted(self._nodes)

    def _tile(self, x1: int, x2: int) -> list[tuple[list[int], list[list[int]]]]:
        """Nodes whose x-ranges tile the points with x1 <= x <= x2, left to
        right: at each next point's x, the longest node there that ends by x2."""
        xs = self._xs
        keys = self._keys
        nodes = self._nodes
        tiles = []
        i = bisect_left(xs, x1)
        while i < len(xs) and xs[i] <= x2:
            # (xs[i], xs[i]) is a key, so the key found starts at xs[i]
            key = keys[bisect_right(keys, (xs[i], x2)) - 1]
            tiles.append(nodes[key])
            i = bisect_right(xs, key[1], i)
        return tiles

    def range_best(self, x1: int, x2: int, y1: int, y2: int) -> int | None:
        """Aggregate label over points in [x1, x2] x [y1, y2]; None if empty."""
        node = self._nodes.get((x1, x2))
        best = None
        for ys, table in self._tile(x1, x2) if node is None else (node,):
            a = bisect_left(ys, y1)
            b = bisect_right(ys, y2)
            if a < b:
                j = (b - a).bit_length() - 1
                level = table[j]
                got = level[a]
                other = level[b - (1 << j)]
                if other < got:
                    got = other
                if best is None or got < best:
                    best = got
        return None if best is None else self._sign * best
