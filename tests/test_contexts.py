"""Boundary context extraction and grid point derivation."""
import random

import pytest

from helpers import (
    FIXTURE_TEXT,
    candidate_prefixes,
    fixture_genomes,
    fixture_tree,
    max_prefix_at,
    max_suffix_of_phrase,
    random_instance,
    reference_contexts,
)
from phylokmer.contexts import (
    BoundaryContext,
    PrefixSet,
    SuffixSet,
    build_context_sets,
    grid_points,
)
from phylokmer.lz77 import lz77_parse
from phylokmer.model import build_concatenation, genome_of_position

FIXTURE_SUFFIXES = (b"A", b"TA", b"ATA", b"GATTAGATA", b"C", b"G", b"AG", b"T", b"GATT")
FIXTURE_PREFIXES = (b"", b"AGAT", b"AT", b"ATACAT", b"ATTACAT", b"CAT", b"TACAT", b"TTACAT")
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


def fixture_concat():
    return build_concatenation(fixture_tree(), fixture_genomes())


def test_max_suffix_of_phrase():
    assert max_suffix_of_phrase(b"CAT$G") == b"G"
    assert max_suffix_of_phrase(b"AGAT$") == b""
    assert max_suffix_of_phrase(b"ATACAT$GATT") == b"GATT"
    assert max_suffix_of_phrase(b"GATTAGATA") == b"GATTAGATA"
    assert max_suffix_of_phrase(b"$") == b""


def test_max_prefix_at():
    assert max_prefix_at(FIXTURE_TEXT, 0) == b"GATTACAT"
    assert max_prefix_at(FIXTURE_TEXT, 1) == b"ATTACAT"
    assert max_prefix_at(FIXTURE_TEXT, 30) == b"AGAT"
    assert max_prefix_at(FIXTURE_TEXT, 8) == b""
    assert max_prefix_at(FIXTURE_TEXT, 44) == b""
    with pytest.raises(ValueError):
        max_prefix_at(FIXTURE_TEXT, 45)
    with pytest.raises(ValueError):
        max_prefix_at(FIXTURE_TEXT, -1)


def test_fixture_context_sets():
    cat = fixture_concat()
    parse = lz77_parse(cat.text)
    suffixes, prefixes, contexts = build_context_sets(cat, parse)
    assert suffixes.strings == FIXTURE_SUFFIXES
    assert prefixes.strings == FIXTURE_PREFIXES
    assert suffixes.rank[b"GATT"] == 9
    assert prefixes.rank[b""] == 1
    assert len(contexts) == 10

    by_boundary = {c.boundary_pos: c for c in contexts}
    assert by_boundary[44].suffix == b"GATTAGATA"
    assert by_boundary[44].prefix == b""
    assert by_boundary[44].genome == 5
    assert by_boundary[30].suffix == b"GATT"
    assert by_boundary[30].prefix == b"AGAT"
    assert by_boundary[30].genome == 4
    # Boundaries preceded by sentinel-final phrases emit nothing.
    assert 9 not in by_boundary
    assert 35 not in by_boundary
    assert by_boundary[6] == BoundaryContext(
        boundary_pos=6, suffix=b"C", prefix=b"AT", genome=1
    )


def test_fixture_candidates_and_discards():
    cat = fixture_concat()
    parse = lz77_parse(cat.text)
    candidates = candidate_prefixes(cat, parse)
    assert len(candidates) == 11
    _, prefixes, _ = build_context_sets(cat, parse)
    discarded = set(candidates) - set(prefixes.strings)
    assert discarded == {b"GATTACAT", b"AGATACAT", b"GATTAGATA"}


def test_fixture_grid_points():
    cat = fixture_concat()
    parse = lz77_parse(cat.text)
    suffixes, prefixes, contexts = build_context_sets(cat, parse)
    points = grid_points(contexts, suffixes, prefixes, "min", fixture_tree().leaves)
    assert points == FIXTURE_POINTS


def test_single_genome_contexts():
    from phylokmer.model import GenomeRecord, parse_newick

    tree = parse_newick("G;")
    cat = build_concatenation(tree, [GenomeRecord("G", b"G")])
    parse = lz77_parse(cat.text)
    suffixes, prefixes, contexts = build_context_sets(cat, parse)
    assert suffixes.strings == (b"G",)
    assert prefixes.strings == (b"",)
    assert contexts == [BoundaryContext(boundary_pos=1, suffix=b"G", prefix=b"", genome=1)]


def test_grid_point_aggregation():
    suffixes = SuffixSet(strings=(b"A",), rank={b"A": 1})
    prefixes = PrefixSet(strings=(b"B",), rank={b"B": 1})
    contexts = [
        BoundaryContext(boundary_pos=3, suffix=b"A", prefix=b"B", genome=1),
        BoundaryContext(boundary_pos=9, suffix=b"A", prefix=b"B", genome=2),
    ]
    assert grid_points(contexts, suffixes, prefixes, "min", (3, 7)) == [(1, 1, 3)]
    assert grid_points(contexts, suffixes, prefixes, "max", (3, 7)) == [(1, 1, 7)]
    with pytest.raises(ValueError):
        grid_points(contexts, suffixes, prefixes, "sum", (3, 7))


def test_context_invariants_on_random_instances():
    rng = random.Random(11)
    for _ in range(60):
        tree, genomes = random_instance(rng)
        cat = build_concatenation(tree, genomes)
        parse = lz77_parse(cat.text)
        suffixes, prefixes, contexts = build_context_sets(cat, parse)
        assert contexts == reference_contexts(cat, parse)

        sentinel = cat.sentinel
        boundary_set = set(parse.boundary_positions)
        seen_suffixes = set()
        seen_prefixes = set()
        for ctx in contexts:
            assert ctx.boundary_pos in boundary_set
            assert ctx.suffix
            assert sentinel not in ctx.suffix and sentinel not in ctx.prefix
            # The context must read back literally around its boundary.
            b = ctx.boundary_pos
            assert cat.text[b - len(ctx.suffix) : b + len(ctx.prefix)] == ctx.suffix + ctx.prefix
            assert genome_of_position(cat, b - 1) == ctx.genome
            seen_suffixes.add(ctx.suffix)
            seen_prefixes.add(ctx.prefix)

        # Every ranked string is witnessed by at least one context.
        assert seen_suffixes == set(suffixes.strings)
        assert seen_prefixes == set(prefixes.strings)
        assert len(contexts) <= parse.z
        assert list(suffixes.strings) == sorted(suffixes.strings, key=lambda s: s[::-1])
        assert list(prefixes.strings) == sorted(prefixes.strings)

        points = grid_points(contexts, suffixes, prefixes, "min", tree.leaves)
        assert len(points) <= len(contexts)
        for x, y, label in points:
            assert 1 <= x <= len(suffixes)
            assert 1 <= y <= len(prefixes)
            assert label in tree.leaves
