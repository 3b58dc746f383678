"""Boundary context extraction, position ranking and grid point derivation."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FIXTURE_TEXT,
    candidate_prefixes,
    fixture_genomes,
    fixture_tree,
    max_prefix_at,
    max_suffix_of_phrase,
    random_instance,
    random_tree_newick,
    reference_context_sets,
    reference_contexts,
    reference_grid_points,
    reference_trie,
    trie_shape,
)
from phylokmer.contexts import (
    BoundaryContext,
    Ranking,
    build_context_sets,
    grid_points,
    rank_slices,
)
from phylokmer.lz77 import lz77_parse
from phylokmer.model import (
    GenomeRecord,
    build_concatenation,
    genome_of_position,
    parse_newick,
    reverse_concatenation,
)
from phylokmer.tries import build_trie

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


def suffix_strings(text, suffixes):
    """The suffix set in co-lex order, read back from refs into the reversed text."""
    rtext = text[::-1]
    return tuple(rtext[pos : pos + n][::-1] for pos, n in suffixes.refs)


def prefix_strings(text, prefixes):
    return tuple(text[pos : pos + n] for pos, n in prefixes.refs)


def as_bytes(contexts):
    return [(c.boundary_pos, c.suffix, c.prefix, c.genome) for c in contexts]


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
    assert suffix_strings(cat.text, suffixes) == FIXTURE_SUFFIXES
    assert prefix_strings(cat.text, prefixes) == FIXTURE_PREFIXES
    assert {x for c, x in zip(contexts, suffixes.ranks) if c.suffix == b"GATT"} == {9}
    assert {y for c, y in zip(contexts, prefixes.ranks) if c.prefix == b""} == {1}
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
    assert as_bytes([by_boundary[6]]) == [(6, b"C", b"AT", 1)]


def test_fixture_candidates_and_discards():
    cat = fixture_concat()
    parse = lz77_parse(cat.text)
    candidates = candidate_prefixes(cat, parse)
    assert len(candidates) == 11
    _, prefixes, _ = build_context_sets(cat, parse)
    discarded = set(candidates) - set(prefix_strings(cat.text, prefixes))
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
    assert suffix_strings(cat.text, suffixes) == (b"G",)
    assert prefix_strings(cat.text, prefixes) == (b"",)
    assert as_bytes(contexts) == [(1, b"G", b"", 1)]


def test_grid_point_aggregation():
    text = b"xxAB$xxxAB"
    suffixes = Ranking(refs=((1, 1),), ranks=[1, 1])  # "A", read in the reversed text
    prefixes = Ranking(refs=((9, 1),), ranks=[1, 1])
    contexts = [
        BoundaryContext(boundary_pos=3, suffix_start=2, prefix_end=4, genome=1, text=text),
        BoundaryContext(boundary_pos=9, suffix_start=8, prefix_end=10, genome=2, text=text),
    ]
    assert as_bytes(contexts) == [(3, b"A", b"B", 1), (9, b"A", b"B", 2)]
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
        assert as_bytes(contexts) == [tuple(c) for c in reference_contexts(cat, parse)]

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
        suffix_set = suffix_strings(cat.text, suffixes)
        prefix_set = prefix_strings(cat.text, prefixes)
        assert seen_suffixes == set(suffix_set)
        assert seen_prefixes == set(prefix_set)
        assert len(contexts) <= parse.z
        assert list(suffix_set) == sorted(suffix_set, key=lambda s: s[::-1])
        assert list(prefix_set) == sorted(prefix_set)

        points = grid_points(contexts, suffixes, prefixes, "min", tree.leaves)
        assert len(points) <= len(contexts)
        for x, y, label in points:
            assert 1 <= x <= len(suffixes.refs)
            assert 1 <= y <= len(prefixes.refs)
            assert label in tree.leaves


def test_rank_slices_fixed_cases():
    assert rank_slices(b"", [], []) == Ranking((), [])
    # Equal strings share a rank and keep their last occurrence as the ref.
    text = b"BA$BA$B$"
    assert rank_slices(text, [0, 3, 6, 2], [2, 5, 7, 2]) == Ranking(
        ((2, 0), (6, 1), (3, 2)), [3, 3, 2, 1]
    )
    # Shared runs of 64, 128 and 256 bytes take one, two and three rounds
    # past the first; a string that ends exactly at a round's width sorts
    # before its extensions.
    for run in (64, 128, 256, 300):
        text = b"A" * run + b"C" + b"$" + b"A" * run + b"B" + b"$" + b"A" * run
        c, b, a = 0, run + 2, 2 * run + 4
        ranking = rank_slices(text, [c, b, a, b], [c + run + 1, b + run + 1, a + run, b + run])
        assert ranking.ranks == [3, 2, 1, 1]


@st.composite
def edited_copies(draw):
    """Copies of one string with a few byte edits, often where a round of
    ``rank_slices`` starts or ends, and spans starting near copy starts."""
    alphabet = draw(st.sampled_from([b"A", b"AC", b"\x00\xff"]))
    period = bytes(draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=8)))
    length = draw(st.one_of(st.sampled_from([66, 130, 258, 500]), st.integers(1, 500)))
    base = (period * length)[:length]
    edit_at = st.one_of(st.sampled_from([0, 63, 64, 65, 191, 192, 193, 447, 448]), st.integers(0, 499))
    shift = st.sampled_from([0, 0, 0, 1])
    copies = []
    for _ in range(draw(st.integers(2, 6))):
        copy = bytearray(base)
        for at in draw(st.lists(edit_at, max_size=2)):
            if at < len(copy):
                copy[at] = draw(st.sampled_from(b"AZ\x00\xff"))
        copies.append(bytes(copy))
    text = b"".join(copies)
    starts, stops = [], []
    for _ in range(draw(st.integers(0, 16))):
        start = min(len(text), len(base) * draw(st.integers(0, len(copies) - 1)) + draw(shift))
        starts.append(start)
        stops.append(draw(st.integers(start, len(text))))
    return text, starts, stops


@settings(derandomize=True, max_examples=300, deadline=None)
@given(edited_copies())
def test_rank_slices_matches_sorting_the_strings(instance):
    text, starts, stops = instance
    strings = [text[a:b] for a, b in zip(starts, stops)]
    distinct = sorted(set(strings))
    ranking = rank_slices(text, starts, stops)
    assert ranking.ranks == [distinct.index(s) + 1 for s in strings]
    last = {s: i for i, s in enumerate(strings)}
    assert ranking.refs == tuple((starts[last[s]], len(s)) for s in distinct)


@st.composite
def shared_run_pangenomes(draw):
    """Genomes over a small alphabet that share a long run and may share tails."""
    sentinel = draw(st.sampled_from([b"$", b"\x00", b"\xff"]))
    alphabet = draw(st.sampled_from([b"A", b"AC", b"ACGT", b"\x00\xffA$"])).replace(sentinel, b"")
    alphabet = alphabet or b"A"

    def seq(min_size, max_size):
        letters = draw(st.lists(st.sampled_from(alphabet), min_size=min_size, max_size=max_size))
        return bytes(letters)

    run = seq(0, 1) * draw(st.sampled_from([0, 63, 65, 129, 257])) + seq(0, 40)
    tail = seq(0, 20)
    count = draw(st.integers(1, 6))
    genomes = []
    for i in range(count):
        own_tail = tail if draw(st.booleans()) else seq(0, 20)
        genome = seq(0, 12) + run + seq(0, 3) + run[: draw(st.integers(0, len(run)))] + own_tail
        genomes.append(GenomeRecord(f"G{i}", genome or alphabet[:1]))
    tree = parse_newick(random_tree_newick(draw(st.randoms()), [g.name for g in genomes]))
    return tree, genomes, sentinel


@settings(derandomize=True, max_examples=150, deadline=None)
@given(shared_run_pangenomes())
def test_position_ranking_matches_byte_sorting(instance):
    tree, genomes, sentinel = instance
    cat = build_concatenation(tree, genomes, sentinel)
    for side, leaves in ((cat, tree.leaves), (reverse_concatenation(cat), tree.leaves[::-1])):
        parse = lz77_parse(side.text)
        suffixes, prefixes, contexts = build_context_sets(side, parse)
        ref_suffixes, ref_prefixes, ref_contexts = reference_context_sets(side, parse)
        assert as_bytes(contexts) == [tuple(c) for c in ref_contexts]
        assert suffix_strings(side.text, suffixes) == ref_suffixes
        assert prefix_strings(side.text, prefixes) == ref_prefixes
        assert suffixes.ranks == [ref_suffixes.index(c.suffix) + 1 for c in ref_contexts]
        assert prefixes.ranks == [ref_prefixes.index(c.prefix) + 1 for c in ref_contexts]
        for aggregate in ("min", "max"):
            assert grid_points(contexts, suffixes, prefixes, aggregate, leaves) == (
                reference_grid_points(ref_contexts, ref_suffixes, ref_prefixes, aggregate, leaves)
            )
        # The tries the engine builds from these refs, against the byte strings.
        reversed_suffixes = [s[::-1] for s in ref_suffixes]
        via_refs = build_trie(text=side.text[::-1], refs=suffixes.refs)
        assert trie_shape(via_refs.root) == trie_shape(reference_trie(reversed_suffixes))
        via_refs = build_trie(text=side.text, refs=prefixes.refs)
        assert trie_shape(via_refs.root) == trie_shape(reference_trie(list(ref_prefixes)))
