"""Static grid of labeled points with closed-box range min/max queries.

A grid holds one point per cell: of points given at one (x, y), it keeps
the one with the least (min grid) or greatest (max grid) label, which is
what any box holding that cell answers over all of them.  The points are
three columns in x order, ties in y order: xs, ys and ``sign * label``,
so a max grid is a min grid on negated labels.  One sort of the triples
``(x, y, sign * label)`` orders the columns and puts each cell's best
point first, the one kept.  With
``start[x]`` the index of the first point with an x of at least x, the
points of a box's x-range are the run ``start[x1] : start[x2 + 1]``.

A box is answered by
- its run, scanned, when that holds at most ``SMALL`` points;
- else the node of its run: the run's ys and labels in y order and,
  above 2 * ``BLOCK`` labels, a doubling table over the minima of blocks
  of ``BLOCK`` labels (the block decomposition of Bender and
  Farach-Colton, "The LCA problem revisited", 2000).  Two bisects on the
  ys select the labels; ``min`` takes at most 2 * ``BLOCK`` of them, or
  the table the whole blocks and ``min`` the two partial blocks around
  them.

A node is keyed by its run, built on the run's first query and kept, so
the grid holds nodes only for the runs queried, and x-ranges with one run
share a node.  The engine asks only for the x-ranges of its suffix trie's
nodes.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterable

from .lca import doubling_table

# Runs of at most SMALL points are scanned and get no node; a node keeps a
# table over the minima of blocks of BLOCK labels.
SMALL = 8
BLOCK = 16


class ContextGrid:
    """Point grid answering aggregate queries over closed boxes; its points,
    ``size`` of them, never change, and it builds a node on each larger
    run's first query."""

    def __init__(self, points: Iterable[tuple[int, int, int]], aggregator: str):
        if aggregator not in ("min", "max"):
            raise ValueError(f"aggregator must be 'min' or 'max', got {aggregator!r}")
        sign = self._sign = 1 if aggregator == "min" else -1
        # Each cell's best point sorts first; only it is kept.
        pts = sorted((x, y, sign * label) for x, y, label in points)
        pairs = zip(pts, [(None, None, None), *pts])
        pts = [p for p, (x, y, _) in pairs if y != p[1] or x != p[0]]
        xs = self._xs = [x for x, _, _ in pts]
        ys = self._ys = [y for _, y, _ in pts]
        if xs and (xs[0] < 1 or min(ys) < 1):
            raise ValueError(f"points outside 1-based rank space: least x {xs[0]}, y {min(ys)}")
        self._labels = [label for _, _, label in pts]
        self.size = len(xs)
        counts = [0] * (xs[-1] + 2 if xs else 1)
        for x in xs:
            counts[x + 1] += 1
        self._start = list(accumulate(counts))
        self._nodes: dict[tuple[int, int], tuple] = {}  # run (i, j) -> its node

    @property
    def points(self) -> tuple[tuple[int, int, int], ...]:
        """The points (x, y, label) in x order, ties in y order."""
        sign = self._sign
        return tuple(zip(self._xs, self._ys, [sign * label for label in self._labels]))

    def _node(self, i: int, j: int) -> tuple[list[int], list[int], list[list[int]]]:
        """The node of the run [i, j): its ys and labels sorted by y, ties
        in x order, and their block table; made on first use, kept in
        ``_nodes``."""
        ys = self._ys
        labels = self._labels
        order = sorted(range(i, j), key=ys.__getitem__)
        mine = [labels[t] for t in order]
        # table[d][b] is the least of the block minima b .. b + 2**d - 1.
        table = []
        if len(mine) > 2 * BLOCK:
            table = doubling_table([min(mine[t : t + BLOCK]) for t in range(0, len(mine), BLOCK)])
        node = self._nodes[i, j] = ([ys[t] for t in order], mine, table)
        return node

    def range_best(self, x1: int, x2: int, y1: int, y2: int) -> int | None:
        """Aggregate label over points in [x1, x2] x [y1, y2]; None if empty.

        A run of at most ``SMALL`` points is scanned; a larger one is
        answered by its node.
        """
        start = self._start
        top = len(start) - 1
        if 0 < x1 <= x2 < top:
            i = start[x1]
            j = start[x2 + 1]
        else:
            i = start[min(max(x1, 0), top)]
            j = start[min(max(x2 + 1, 0), top)]
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
            ys, labels, table = self._nodes.get((i, j)) or self._node(i, j)
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
