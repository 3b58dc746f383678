"""Range-aggregate grid against a numpy linear scan and a brute-force scan."""
import random
from bisect import bisect_left, bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import node_intervals
from phylokmer import grid as grid_mod
from phylokmer.grid import ContextGrid
from phylokmer.tries import build_trie

# (SMALL, BLOCK): a node on every non-empty run with tables over single
# labels or pairs, the shipped sizes, and no node at all, so that every
# path of range_best is compared with the scan.
SIZES = [(0, 1), (0, 2), (grid_mod.SMALL, grid_mod.BLOCK), (10**9, 16)]


def grid_sizes(small, block):
    """The grid module with SMALL and BLOCK set, for a with block."""
    return mock.patch.multiple(grid_mod, SMALL=small, BLOCK=block)

FIXTURE_POINTS = [
    (1, 8, 1),
    (2, 6, 1),
    (3, 6, 3),
    (4, 1, 9),
    (5, 3, 1),
    (6, 4, 5),
    (6, 5, 1),
    (7, 4, 3),
    (8, 7, 1),
    (9, 2, 7),
]


def scan_best(points, box, pick):
    x1, x2, y1, y2 = box
    labels = [p[2] for p in points if x1 <= p[0] <= x2 and y1 <= p[1] <= y2]
    return pick(labels) if labels else None


def test_fixture_boxes():
    grid = ContextGrid(FIXTURE_POINTS, "min")
    # The two boxes used when classifying TAG on the worked example.
    assert grid.range_best(2, 3, 6, 8) == 1
    assert grid.range_best(8, 8, 7, 7) == 1
    assert grid.range_best(9, 9, 2, 2) == 7
    assert grid.range_best(1, 9, 1, 8) == 1
    assert grid.range_best(4, 4, 2, 8) is None


def test_max_aggregator():
    grid = ContextGrid(FIXTURE_POINTS, "max")
    assert grid.range_best(1, 9, 1, 8) == 9
    assert grid.range_best(2, 3, 6, 8) == 3


def test_empty_and_degenerate_boxes():
    grid = ContextGrid(FIXTURE_POINTS, "min")
    assert grid.range_best(5, 4, 1, 8) is None
    assert grid.range_best(1, 9, 8, 7) is None
    assert grid.range_best(6, 6, 4, 4) == 5


def test_single_point_grid():
    grid = ContextGrid([(1, 1, 42)], "min")
    assert grid.range_best(1, 1, 1, 1) == 42
    assert grid.range_best(2, 5, 1, 1) is None


def test_empty_grid():
    grid = ContextGrid([], "min")
    assert grid.range_best(1, 10, 1, 10) is None


def test_validation():
    with pytest.raises(ValueError):
        ContextGrid([(0, 1, 5)], "min")
    with pytest.raises(ValueError):
        ContextGrid([(1, 0, 5)], "min")
    # Repeated cells fold into their best point.
    assert ContextGrid([(1, 1, 5), (1, 1, 6)], "min").points == ((1, 1, 5),)
    assert ContextGrid([(1, 1, 6), (1, 1, 5)], "max").points == ((1, 1, 6),)
    with pytest.raises(ValueError):
        ContextGrid([(1, 1, 5)], "median")


def test_against_numpy_scan():
    rng = random.Random(31)
    for trial in range(120):
        x_size = rng.randint(1, 40)
        y_size = rng.randint(1, 40)
        cells = [(x, y) for x in range(1, x_size + 1) for y in range(1, y_size + 1)]
        count = rng.randint(0, min(len(cells), 60))
        chosen = rng.sample(cells, count)
        points = [(x, y, rng.randint(1, 10**6)) for x, y in chosen]
        aggregator = "min" if trial % 2 == 0 else "max"
        grid = ContextGrid(points, aggregator)

        xs = np.array([p[0] for p in points], dtype=np.int64)
        ys = np.array([p[1] for p in points], dtype=np.int64)
        labels = np.array([p[2] for p in points], dtype=np.int64)
        reduce = np.min if aggregator == "min" else np.max

        for _ in range(40):
            x1 = rng.randint(1, x_size + 2)
            x2 = rng.randint(1, x_size + 2)
            y1 = rng.randint(1, y_size + 2)
            y2 = rng.randint(1, y_size + 2)
            got = grid.range_best(x1, x2, y1, y2)
            if len(points) == 0:
                assert got is None
                continue
            mask = (xs >= x1) & (xs <= x2) & (ys >= y1) & (ys <= y2)
            expected = int(reduce(labels[mask])) if mask.any() else None
            assert got == expected, (points, (x1, x2, y1, y2), aggregator)


def test_duplicate_labels_across_cells_are_fine():
    grid = ContextGrid([(1, 1, 7), (2, 2, 7), (3, 3, 7)], "max")
    assert grid.range_best(1, 3, 1, 3) == 7


def test_every_size_up_to_70_points():
    # Every x-range, so under small SMALL every run gets a node.
    rng = random.Random(32)
    for small, block in SIZES:
        with grid_sizes(small, block):
            for n in range(71):
                points = [(x, rng.randint(1, 9), rng.randint(1, 30)) for x in range(1, n + 1)]
                for aggregator, pick in (("min", min), ("max", max)):
                    grid = ContextGrid(points, aggregator)
                    for x1 in range(0, n + 2):
                        for x2 in range(x1, n + 2):
                            y1 = rng.randint(0, 10)
                            y2 = rng.randint(y1, 10)
                            box = (x1, x2, y1, y2)
                            got = grid.range_best(*box)
                            assert got == scan_best(points, box, pick), (small, block, n, box)


@pytest.mark.parametrize("aggregator, pick", [("min", min), ("max", max)])
def test_partial_blocks_at_both_ends(aggregator, pick):
    # Nodes of 100, 50 and 70 points, ten per x, read through their
    # tables: each box's y-range covers whole blocks and cuts a block at
    # either end.  The one winning label sits at every point in turn,
    # inside the box and out.
    cells = [(x, y) for x in range(1, 11) for y in range(1, 11)]
    boxes = [(1, 10, 3, 7), (1, 10, 2, 9), (1, 5, 2, 8), (1, 7, 2, 9)]
    for box in boxes:
        grid = ContextGrid([(x, y, 5) for x, y in cells], aggregator)
        grid.range_best(*box)
        [(ys, _, _)] = grid._nodes.values()
        a, b = bisect_left(ys, box[2]), bisect_right(ys, box[3])
        assert a % grid_mod.BLOCK and b % grid_mod.BLOCK and b - a > 2 * grid_mod.BLOCK, box
    winner = 1 if aggregator == "min" else 99
    for cell in cells:
        points = [(x, y, winner if (x, y) == cell else 50) for x, y in cells]
        grid = ContextGrid(points, aggregator)
        for box in boxes:
            assert grid.range_best(*box) == scan_best(points, box, pick), (cell, box)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 40)),
        max_size=70,
        unique_by=lambda p: p[:2],
    ),
    repeats=st.lists(st.tuples(st.integers(0, 69), st.integers(1, 40)), max_size=30),
    aggregator=st.sampled_from(["min", "max"]),
    boxes=st.lists(st.tuples(*[st.integers(-1, 15)] * 4), min_size=1, max_size=20),
)
def test_matches_brute_force_scan(points, repeats, aggregator, boxes):
    # Shared xs, shared ys and repeated labels; repeated cells with other
    # labels, which the grid folds into one point each; boxes may be empty,
    # inverted (x1 > x2 or y1 > y2) or overhang the rank space on either side.
    pick = min if aggregator == "min" else max
    if points:
        points = points + [(*points[i % len(points)][:2], label) for i, label in repeats]
    cells: dict[tuple[int, int], list[int]] = {}
    for x, y, label in points:
        cells.setdefault((x, y), []).append(label)
    folded = tuple(sorted((x, y, pick(labels)) for (x, y), labels in cells.items()))
    for small, block in SIZES:
        with grid_sizes(small, block):
            grid = ContextGrid(points, aggregator)
            assert grid.points == folded and grid.size == len(cells)
            for box in boxes:
                assert grid.range_best(*box) == scan_best(points, box, pick), (small, block, box)


def _check_trie_family(strings, points, boxes):
    """A grid answers each trie node's x-range, and any box, like the scan.
    Only runs of more than SMALL points get a node."""
    trie = build_trie(strings)
    for aggregator, pick in (("min", min), ("max", max)):
        grid = ContextGrid(points, aggregator)
        for lo, hi in node_intervals(trie):
            for y1, y2 in ((1, 9), (2, 5), (4, 4), (6, 3)):
                box = (lo, hi, y1, y2)
                assert grid.range_best(*box) == scan_best(points, box, pick), box
        assert all(len(ys) > grid_mod.SMALL for ys, _, _ in grid._nodes.values())
        for box in boxes + [(1, trie.size, 1, 9)]:
            assert grid.range_best(*box) == scan_best(points, box, pick), box


def test_trie_family_fixed_shapes():
    # b"a" ends at an internal node; every string starts with b"c", so the
    # root of the second trie has a single child, [1, size] like itself.
    for strings in (
        [b"a", b"aa", b"aab", b"ab", b"b"],
        [b"c", b"ca", b"caa", b"cab", b"cb"],
    ):
        points = [(rank, y, 10 * rank + y) for rank in range(1, 6) for y in (1, 4, 7)[: rank % 4]]
        boxes = [(x1, x2, 2, 8) for x1 in range(0, 7) for x2 in range(x1 - 1, 7)]
        _check_trie_family(strings, points, boxes)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_trie_family_matches_brute_force_scan(data):
    # Random sorted distinct strings over two bytes, so that terminals sit
    # at internal nodes; a non-empty stem gives the root a single child.
    # Each rank carries 0-3 points.
    stem = data.draw(st.sampled_from([b"", b"b", b"ab"]))
    tail = st.lists(st.sampled_from(b"ab"), max_size=5).map(bytes)
    strings = sorted({stem + t for t in data.draw(st.lists(tail, min_size=1, max_size=14))})
    points = []
    for rank in range(1, len(strings) + 1):
        for y in sorted(data.draw(st.sets(st.integers(1, 8), max_size=3))):
            points.append((rank, y, data.draw(st.integers(1, 40))))
    boxes = data.draw(st.lists(st.tuples(*[st.integers(-1, 17)] * 4), max_size=12))
    for small, block in SIZES:
        with grid_sizes(small, block):
            _check_trie_family(strings, points, boxes)


def test_nodes_are_built_on_first_query_and_kept():
    # Ten points at each x of 2..4, none at 1 or 5: every x-range from
    # [1|2, 4|5] is the one run of 30 points.
    points = [(x, y, 10 * x + y) for x in range(2, 5) for y in range(1, 11)]
    grid = ContextGrid(points, "min")
    assert grid._nodes == {}
    assert grid.range_best(2, 4, 3, 7) == 23
    (node,) = grid._nodes.values()
    assert grid.range_best(2, 4, 1, 10) == 21
    assert grid._nodes[0, 30] is node
    for x1, x2 in ((1, 4), (2, 5), (1, 5), (0, 9)):
        assert grid.range_best(x1, x2, 5, 9) == 25
    assert list(grid._nodes) == [(0, 30)] and grid._nodes[0, 30] is node


def test_only_runs_of_more_than_small_points_get_a_node():
    small = grid_mod.SMALL
    points = [(x, 1, x) for x in range(1, small + 2)]
    grid = ContextGrid(points, "max")
    assert grid.range_best(1, small, 1, 1) == small
    assert grid.range_best(2, small + 1, 1, 1) == small + 1
    assert grid._nodes == {}
    assert grid.range_best(1, small + 1, 1, 1) == small + 1
    assert list(grid._nodes) == [(0, small + 1)]
