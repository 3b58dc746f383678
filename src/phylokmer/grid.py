"""Static grid of labeled points with closed-box range min/max queries.

The points are three columns in x order, ties in y order: xs, ys and
``sign * label``, so a max grid is a min grid on negated labels.  With
``start[x]`` the index of the first point with an x of at least x, the
points of a box's x-range are the run ``start[x1] : start[x2 + 1]``.

The grid is laid out on a family of x-intervals.  An interval whose run
holds more than ``SMALL`` points is a node: the run's ys and labels in y
order and, above 2 * ``BLOCK`` labels, a doubling table over the minima of
blocks of ``BLOCK`` labels (the block decomposition of Bender and
Farach-Colton, "The LCA problem revisited", 2000).  A box is answered by
- its run, scanned, when that holds at most ``SMALL`` points;
- else its node, when its x-range is one: two bisects on the ys, then
  ``min`` over at most 2 * ``BLOCK`` labels, or the table over the whole
  blocks and ``min`` over the two partial blocks around them;
- else by tiling from the left: at each next point's x, the longest node
  starting there that ends by x2, or that x's points where no node starts.

The engine passes the intervals of its suffix trie's nodes, the x-ranges
of every box it asks for, so it never tiles.  Without them the grid halves
its distinct xs top-down, so a tiled box takes O(log n) nodes and runs of
at most ``SMALL`` points.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate
from typing import Iterable

# Runs of at most SMALL points are scanned and get no node; a node keeps a
# table over the minima of blocks of BLOCK labels.
SMALL = 8
BLOCK = 16


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
        sign = self._sign = 1 if aggregator == "min" else -1
        xs = self._xs = [x for x, _, _ in pts]
        self._ys = [y for _, y, _ in pts]
        self._labels = [sign * label for _, _, label in pts]
        counts = [0] * (xs[-1] + 2 if xs else 1)
        for x in xs:
            counts[x + 1] += 1
        self._start = list(accumulate(counts))
        if intervals is None:
            distinct = sorted(set(xs))
            family = []
            halves = [(0, len(distinct))] if distinct else []
            for a, b in halves:  # grows while it is read: breadth-first halving
                family.append((distinct[a], distinct[b - 1]))
                if b - a > 1:
                    mid = (a + b) // 2
                    halves += [(a, mid), (mid, b)]
        else:
            family = intervals
        self._build(family)

    @property
    def points(self) -> tuple[tuple[int, int, int], ...]:
        """The points (x, y, label) in x order, ties in y order."""
        sign = self._sign
        return tuple(zip(self._xs, self._ys, [sign * label for label in self._labels]))

    def _run(self, x1: int, x2: int) -> tuple[int, int]:
        """The column indices [i, j) of the points with x1 <= x <= x2; j <= i if none."""
        start = self._start
        top = len(start) - 1
        return start[min(max(x1, 0), top)], start[min(max(x2 + 1, 0), top)]

    def _build(self, family: Iterable[tuple[int, int]]) -> None:
        """Fill ``_nodes[lo, hi]`` with (ys, labels, table) for every interval
        whose run holds more than ``SMALL`` points, once each.

        Points are ranked by y once (ties in x order); a node sorts the
        ranks of its run, so its ys and labels come in y order.
        """
        ys = self._ys
        labels = self._labels
        by_y = sorted(range(len(ys)), key=ys.__getitem__)
        y_of = [ys[i] for i in by_y]
        label_of = [labels[i] for i in by_y]
        rank = [0] * len(ys)
        for r, i in enumerate(by_y):
            rank[i] = r
        start = self._start
        top = len(start) - 1
        nodes = {}
        for lo, hi in family:
            i, j = (start[lo], start[hi + 1]) if 0 < lo <= hi < top else self._run(lo, hi)
            if j - i <= SMALL or (lo, hi) in nodes:
                continue
            mine = rank[i:j]
            mine.sort()
            mine_labels = [label_of[r] for r in mine]
            # table[d][b] is the least of the block minima b .. b + 2**d - 1.
            table = []
            if len(mine) > 2 * BLOCK:
                level = [min(mine_labels[t : t + BLOCK]) for t in range(0, len(mine), BLOCK)]
                table.append(level)
                blocks = len(level)
                span = 1
                while span * 2 <= blocks:
                    level = [a if a < b else b for a, b in zip(level, level[span:])]
                    table.append(level)
                    span *= 2
            nodes[lo, hi] = ([y_of[r] for r in mine], mine_labels, table)
        self._nodes = nodes

    @cached_property
    def _keys(self) -> list[tuple[int, int]]:
        """The node intervals in order, for tiling; sorted on first use."""
        return sorted(self._nodes)

    def _tile(self, x1: int, x2: int, y1: int, y2: int) -> int | None:
        """Least signed label of the box, tiled from the left: at each next
        point's x, the longest node there that ends by x2, else the points
        at that x, which come in y order."""
        xs, ys, labels, start = self._xs, self._ys, self._labels, self._start
        keys = self._keys
        top = len(start) - 1
        best = None
        i, end = self._run(x1, x2)
        while i < end:
            x = xs[i]
            at = bisect_right(keys, (x, x2)) - 1
            if at >= 0 and keys[at][0] == x:
                node_ys, node_labels, table = self._nodes[keys[at]]
                a = bisect_left(node_ys, y1)
                got = _least(node_labels, table, a, bisect_right(node_ys, y2, a))
                i = start[min(keys[at][1] + 1, top)]
            else:
                j = start[x + 1]
                a = bisect_left(ys, y1, i, j)
                b = bisect_right(ys, y2, a, j)
                got = min(labels[a:b]) if a < b else None
                i = j
            if got is not None and (best is None or got < best):
                best = got
        return best

    def range_best(self, x1: int, x2: int, y1: int, y2: int) -> int | None:
        """Aggregate label over points in [x1, x2] x [y1, y2]; None if empty.

        A run of at most ``SMALL`` points is scanned; a larger one is
        answered by the node of [x1, x2], or tiled where there is none.
        """
        start = self._start
        if 0 < x1 <= x2 < len(start) - 1:
            i = start[x1]
            j = start[x2 + 1]
        else:
            i, j = self._run(x1, x2)
        if j - i <= SMALL:
            ys = self._ys
            if j - i == 1:
                y = ys[i]
                return self._sign * self._labels[i] if y1 <= y <= y2 else None
            labels = self._labels
            best = None
            for t in range(i, j):
                if y1 <= ys[t] <= y2 and (best is None or labels[t] < best):
                    best = labels[t]
        else:
            node = self._nodes.get((x1, x2))
            if node is None:
                best = self._tile(x1, x2, y1, y2)
            else:
                ys, labels, table = node
                a = bisect_left(ys, y1)
                b = bisect_right(ys, y2)
                if b - a == 1:  # most node boxes of the split loop select one label
                    return self._sign * labels[a]
                best = _least(labels, table, a, b)
        return None if best is None else self._sign * best


def _least(labels: list[int], table: list[list[int]], a: int, b: int) -> int | None:
    """The least of a node's ``labels[a:b]``, or None if a >= b."""
    if b - a <= 2 * BLOCK:
        return min(labels[a:b]) if a < b else None
    # The whole blocks lo .. hi - 1 from the table, the partial blocks
    # [a, lo * BLOCK) and [hi * BLOCK, b) from the labels.
    lo = -(-a // BLOCK)
    hi = b // BLOCK
    d = (hi - lo).bit_length() - 1
    level = table[d]
    return min(level[lo], level[hi - (1 << d)], *labels[a : lo * BLOCK], *labels[hi * BLOCK : b])
