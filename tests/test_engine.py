"""End-to-end index behavior: side queries, classification, descent budget."""
import dataclasses
import gc
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_cuts_best,
    benchmark_generator,
    fixture_genomes,
    fixture_tree,
    kmer_occurrences,
    node_intervals,
    random_instance,
    random_pattern,
    random_tree_newick,
    split_loops,
    table_classify,
)
from phylokmer import (
    build_index,
    classify,
    classify_with_stats,
    load_index,
    naive_classify,
    save_index,
    side_query,
)
from phylokmer.engine import HEAD_CAP, QueryStats, _sweep, head_length
from phylokmer.grid import BLOCK, ContextGrid
from phylokmer.model import GenomeRecord, parse_newick


def test_fixture_side_shapes(worked_index):
    idx = worked_index
    assert idx.forward.parse.z == 12
    assert len(idx.forward.grid.points) == 10
    assert not idx.forward.is_reverse
    assert idx.reverse.parse.z == 10
    assert len(idx.reverse.grid.points) == 8
    assert idx.reverse.is_reverse
    assert idx.reverse.text == idx.forward.text[::-1]


def test_fixture_side_queries(worked_index):
    assert side_query(worked_index, worked_index.forward, b"TAG") == 7
    assert side_query(worked_index, worked_index.reverse, b"TAG") == 9
    assert side_query(worked_index, worked_index.forward, b"GAC") is None
    assert side_query(worked_index, worked_index.reverse, b"GAC") is None
    assert side_query(worked_index, worked_index.forward, b"AGA") == 3
    assert side_query(worked_index, worked_index.reverse, b"AGA") == 9


def test_fixture_classification(worked_index):
    results = classify(worked_index, b"TAGACA", 3)
    assert [r.position for r in results] == [1, 2, 3, 4]
    assert [r.kmer for r in results] == [b"TAG", b"AGA", b"GAC", b"ACA"]
    assert [r.answer for r in results] == [8, 6, None, 2]


def test_fixture_classification_other_k(worked_index):
    assert [r.answer for r in classify(worked_index, b"TAGACA", 1)] == [6, 6, 6, 6, 2, 6]
    whole = classify(worked_index, b"TAGACA", 6)
    assert len(whole) == 1 and whole[0].answer is None
    assert classify(worked_index, b"TAGACA", 7) == []
    # Cross-check the same calls against the brute-force reference.
    tree, genomes = fixture_tree(), fixture_genomes()
    for k in range(1, 8):
        got = [r.answer for r in classify(worked_index, b"TAGACA", k)]
        want = [r.answer for r in naive_classify(tree, genomes, b"TAGACA", k)]
        assert got == want


def test_whole_genome_as_kmer(worked_index):
    results = classify(worked_index, b"GATTACAT", 8)
    assert len(results) == 1
    assert results[0].answer == 1


def test_invalid_queries(worked_index):
    with pytest.raises(ValueError):
        classify(worked_index, b"TAGACA", 0)
    with pytest.raises(ValueError):
        classify(worked_index, b"TAG$CA", 3)
    with pytest.raises(ValueError):
        side_query(worked_index, worked_index.forward, b"")
    with pytest.raises(ValueError):
        side_query(worked_index, worked_index.forward, b"A$")


def test_bytes_outside_alphabet_are_just_absent(worked_index):
    assert [r.answer for r in classify(worked_index, b"XYZ", 2)] == [None, None]


def test_single_genome_index():
    tree = parse_newick("G;")
    index = build_index(tree, [GenomeRecord("G", b"ACGT")])
    assert [r.answer for r in classify(index, b"ACGT", 2)] == [1, 1, 1]
    assert [r.answer for r in classify(index, b"TTT", 2)] == [None, None]
    assert side_query(index, index.forward, b"CG") == 1
    assert side_query(index, index.reverse, b"CG") == 1


def test_two_identical_genomes():
    tree = parse_newick("(A,B);")
    index = build_index(tree, [GenomeRecord("A", b"ACAC"), GenomeRecord("B", b"ACAC")])
    # Every occurring k-mer is in both genomes, so the answer is the root,
    # which is vertex 2 (leaves are 1 and 3 under in-order numbering).
    assert [r.answer for r in classify(index, b"ACAC", 2)] == [2, 2, 2]
    assert side_query(index, index.forward, b"CA") == 1
    assert side_query(index, index.reverse, b"CA") == 3


def test_classification_is_pure(worked_index):
    first = classify(worked_index, b"TAGACA", 3)
    second = classify(worked_index, b"TAGACA", 3)
    assert first == second


def test_index_is_frozen(worked_index):
    with pytest.raises(dataclasses.FrozenInstanceError):
        worked_index.sentinel = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        worked_index.forward.is_reverse = True


def test_sides_report_extreme_occurrence_leaves():
    # Forward answers the smallest leaf vertex whose genome contains the
    # k-mer, reverse the largest; both None exactly when no genome does.
    rng = random.Random(51)
    for _ in range(30):
        tree, genomes = random_instance(rng, max_genomes=6, max_genome_len=40)
        index = build_index(tree, genomes)
        for _ in range(12):
            kmer = random_pattern(rng, genomes, max_len=8)
            hits = kmer_occurrences(tree, genomes, kmer)
            fwd = side_query(index, index.forward, kmer)
            rev = side_query(index, index.reverse, kmer)
            if not hits:
                assert fwd is None and rev is None
            else:
                leaves = sorted(tree.leaves[g - 1] for g in hits)
                assert fwd == leaves[0]
                assert rev == leaves[-1]


def test_matches_reference_on_random_instances():
    rng = random.Random(52)
    for _ in range(40):
        tree, genomes = random_instance(rng)
        index = build_index(tree, genomes)
        for _ in range(6):
            pattern = random_pattern(rng, genomes, max_len=16)
            for k in range(1, len(pattern) + 1):
                got = classify(index, pattern, k)
                want = naive_classify(tree, genomes, pattern, k)
                assert got == want, (pattern, k)


def test_descent_budget(worked_index):
    rng = random.Random(53)
    for _ in range(40):
        pattern = random_pattern(rng, fixture_genomes(), max_len=24)
        m = len(pattern)
        for k in {1, 2, max(1, m // 2), m}:
            results, stats = classify_with_stats(worked_index, pattern, k)
            assert stats.descents <= 4 * m, (pattern, k, stats)
            kmers = len(results)
            assert stats.grid_queries <= 2 * k * kmers
            assert results == classify(worked_index, pattern, k)


def test_split_loop_never_tiles_the_grid():
    # Every box the split loop sends has the x-range of a suffix-trie node,
    # so the grid builds nodes only on the runs of such nodes.
    synth = benchmark_generator()
    rng = random.Random("one node per split")
    pangenome = synth.make_pangenome(rng, genomes=6, length=400)
    reads = synth.make_reads(rng, pangenome, 8, 150, error_rate=0.02, novel_share=0.25)
    tree = parse_newick(pangenome.newick)
    genomes = [GenomeRecord(name, seq) for name, seq in pangenome.genomes]
    index = build_index(tree, genomes)
    mutated = bytearray(genomes[2].sequence)
    third = len(mutated) // 3
    mutated[third] = b"C"[0] if mutated[third] != b"C"[0] else b"G"[0]
    patterns = [(read, k) for read in reads for k in (1, 31)]
    wholes = (genomes[0].sequence, genomes[4].sequence, bytes(mutated))
    patterns += [(seq, len(seq)) for seq in wholes]
    for pattern, k in patterns:
        assert classify(index, pattern, k) == naive_classify(tree, genomes, pattern, k), k
    for side in (index.forward, index.reverse):
        start = side.grid._start
        runs = {(start[lo], start[hi + 1]) for lo, hi in node_intervals(side.suffix_trie)}
        assert side.grid._nodes and set(side.grid._nodes) <= runs


def test_fresh_grids_hold_no_nodes(worked_index, tmp_path):
    # Nodes are built by queries, so neither a build nor a load makes one.
    save_index(worked_index, tmp_path / "fixture.pkm")
    for index in (worked_index, load_index(tmp_path / "fixture.pkm")):
        for side in (index.forward, index.reverse):
            assert side.grid._nodes == {}


def test_build_and_load_leave_no_reference_cycles(tmp_path):
    # Everything a build or a load makes is either kept by the index or
    # freed by reference counting; nothing waits for the cyclic GC.
    synth = benchmark_generator()
    pangenome = synth.make_pangenome(random.Random("no cycles"), genomes=4, length=3_000)
    tree = parse_newick(pangenome.newick)
    genomes = [GenomeRecord(name, seq) for name, seq in pangenome.genomes]
    gc.collect()
    gc.disable()
    try:
        index = build_index(tree, genomes)
        assert gc.collect() == 0
        save_index(index, tmp_path / "cycles.pkm")
        gc.collect()
        load_index(tmp_path / "cycles.pkm")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_grid_size_bound_on_nested_phrases():
    # Blocks of t A's, then one C: phrases nest, so suffix strings run long
    # and deep trie nodes pile up.  Below the root, a point sits under at
    # most one trie node per byte of its suffix string; suffix strings are
    # phrase-bounded, so level 0, the nodes' labels, holds at most
    # points + text bytes.  The tables above it are over minima of blocks
    # of BLOCK labels, so they hold about a BLOCK-th of doubling tables.
    # Every suffix-trie node's box is queried first, so every node the
    # split loop could build is built.
    genome = b"".join(b"A" * t + b"C" for t in range(1, 121))
    index = build_index(parse_newick("G;"), [GenomeRecord("G", genome)])
    for side in (index.forward, index.reverse):
        for lo, hi in node_intervals(side.suffix_trie):
            side.grid.range_best(lo, hi, 1, side.prefix_trie.size)
        nodes = side.grid._nodes.values()
        points = len(side.grid.points)
        bound = points + len(side.text)
        level0 = sum(len(labels) for _, labels, _ in nodes)
        upper = sum(len(level) for _, _, table in nodes for level in table)
        assert level0 <= bound
        assert level0 + upper <= bound * (1 + math.log2(points))
        assert upper <= level0 * (1 + math.log2(points)) / BLOCK, (upper, level0)


def _assert_live_cuts_match_all_cuts(index, pattern, k):
    """Per k-mer and side, the sweep gives the label of the all-cuts loops;
    the live-cut loops give it too and make the same grid queries.  classify
    answers with the LCA of those labels and makes the descents and grid
    queries of the live-cut loops, the reverse side's only for found k-mers."""
    n = len(pattern) - k + 1
    left = all_cuts_best(index, index.forward, pattern, k)
    right = all_cuts_best(index, index.reverse, pattern, k)
    found = [i for i in range(n) if left[i] is not None]
    loop_stats = []
    for side, want, asked in ((index.forward, left, range(n)), (index.reverse, right, found)):
        swept = _sweep(index, side, pattern, k, list(range(n)), QueryStats())
        assert swept[::-1 if side.is_reverse else 1] == want, (pattern, k, side.is_reverse)
        live, live_stats = split_loops(index, side, pattern, k, asked)
        every, every_stats = split_loops(index, side, pattern, k, asked, live_only=False)
        assert live == every == {i: want[i] for i in asked}, (pattern, k, side.is_reverse)
        assert live_stats.grid_queries == every_stats.grid_queries, (pattern, k, side.is_reverse)
        assert live_stats.descents <= every_stats.descents
        loop_stats.append(live_stats)
    results, stats = classify_with_stats(index, pattern, k)
    answers = [None if a is None else index.lca.query(a, b) for a, b in zip(left, right)]
    assert [r.answer for r in results] == answers, (pattern, k)
    assert stats.descents == stats.verifications == sum(s.descents for s in loop_stats), (pattern, k)
    assert stats.grid_queries == sum(s.grid_queries for s in loop_stats), (pattern, k)
    for kmer in {pattern[i : i + k] for i in range(0, n, 5)}:
        for side in (index.forward, index.reverse):
            want = all_cuts_best(index, side, kmer, k)[0]
            assert side_query(index, side, kmer) == want, (kmer, side.is_reverse)


def _live_cut_instances():
    """Unary and periodic genomes, where every head of a pattern from them is
    among the tries' heads, random genomes, the worked fixture, whose genomes
    are shorter than H for k >= 17, and genomes long enough for k-mers where
    H stays at HEAD_CAP."""
    rng = random.Random(54)
    repeat = bytearray((b"ACGTTGA" * 60)[:400])
    repeat[250] = ord("C")
    instances = [
        (parse_newick("(A,B);"), [GenomeRecord("A", b"A" * 90), GenomeRecord("B", b"A" * 75)]),
        (
            parse_newick("((P,Q),R);"),
            [
                GenomeRecord("P", b"ACG" * 30),
                GenomeRecord("Q", b"ACGACT" * 14),
                GenomeRecord("R", b"CA" * 40),
            ],
        ),
        random_instance(rng, max_genomes=6, max_genome_len=120),
        (fixture_tree(), fixture_genomes()),
        (
            parse_newick("((A,B),C);"),
            [
                GenomeRecord("A", bytes(repeat)),
                GenomeRecord("B", bytes(rng.choice(b"ACGT") for _ in range(380))),
                GenomeRecord("C", (b"ACGTTGA" * 60)[3:360]),
            ],
        ),
    ]
    return rng, instances


def test_live_cuts_match_all_cuts_for_every_k():
    rng, instances = _live_cut_instances()
    for tree, genomes in instances:
        index = build_index(tree, genomes)
        # H = ceil(k / 2) steps at every odd k; from k = 63 on H stays at
        # HEAD_CAP, which keeps the test exact.
        for k in [*range(1, 71), 126, 127, 128, 200, 255, 256]:
            h = head_length(k)
            seq = rng.choice(genomes).sequence
            start = rng.randrange(len(seq))
            piece = (seq[start:] + seq)[: k + rng.randrange(4)]
            mutated = bytearray(piece)
            mutated[rng.randrange(len(mutated))] = rng.choice(b"ACGT")
            unary = bytes([piece[0]]) * (k + 2)
            for pattern in (piece, bytes(mutated), unary, piece[: h - 1]):
                if pattern:
                    _assert_live_cuts_match_all_cuts(index, pattern, k)
        sides = (index.forward, index.reverse)
        tries = [trie for side in sides for trie in (side.suffix_trie, side.prefix_trie)]
        assert {max(trie._heads) for trie in tries} == {HEAD_CAP}


@st.composite
def periodic_instances(draw):
    """Few genomes repeating one short period with a few edits, a k from 1 to
    70 (boundaries favoured) and a pattern cut from a genome or the period."""
    alphabet = draw(st.sampled_from([b"A", b"AC", b"ACGT"]))
    period = bytes(draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=6)))
    names = [f"G{i}" for i in range(draw(st.integers(1, 4)))]
    genomes = []
    for name in names:
        seq = bytearray((period * 150)[: draw(st.integers(1, 140))])
        for at in draw(st.lists(st.integers(0, 139), max_size=2)):
            if at < len(seq):
                seq[at] = draw(st.sampled_from(b"ACGT"))
        genomes.append(GenomeRecord(name, bytes(seq)))
    tree = parse_newick(random_tree_newick(draw(st.randoms(use_true_random=False)), names))
    k = draw(st.one_of(st.sampled_from([1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64]), st.integers(1, 70)))
    source = draw(st.sampled_from([g.sequence for g in genomes] + [period * 150]))
    start = draw(st.integers(0, len(source) - 1))
    pattern = bytearray(source[start : start + k + draw(st.integers(-3, 6))] or source[:1])
    for at in draw(st.lists(st.integers(0, len(pattern) - 1), max_size=1)):
        pattern[at] = draw(st.sampled_from(b"ACGT"))
    return tree, genomes, bytes(pattern), k


@settings(derandomize=True, max_examples=200, deadline=None)
@given(periodic_instances())
def test_live_cuts_match_all_cuts_on_periodic_genomes(instance):
    tree, genomes, pattern, k = instance
    _assert_live_cuts_match_all_cuts(build_index(tree, genomes), pattern, k)


def _assert_matches_reference(tree, genomes, pattern, ks):
    index = build_index(tree, genomes)
    for k in ks:
        got = classify(index, pattern, k)
        assert got == naive_classify(tree, genomes, pattern, k), (pattern, k)
    return index


def test_early_exits_on_one_genome():
    # leaves[0] == leaves[-1]: both sides stop at their first hit.
    tree = parse_newick("G;")
    genomes = [GenomeRecord("G", b"ACGTTGCAAC")]
    for pattern in (b"ACGTTGCAAC", b"GTTGCATTTACG", b"CAACGT"):
        _assert_matches_reference(tree, genomes, pattern, range(1, len(pattern) + 1))


def test_early_exits_on_identical_genomes():
    names = ["A", "B", "C", "D", "E"]
    tree = parse_newick("((A,B),(C,(D,E)));")
    genomes = [GenomeRecord(name, b"GATTACAGATTTACA") for name in names]
    pattern = b"TTACAGATTTACAGG"
    index = _assert_matches_reference(tree, genomes, pattern, range(1, len(pattern) + 1))
    for r in classify(index, pattern, 5):
        assert r.answer in (None, tree.root)
    assert side_query(index, index.forward, b"ACAG") == tree.leaves[0]
    assert side_query(index, index.reverse, b"ACAG") == tree.leaves[-1]


def test_kmer_only_in_leftmost_or_rightmost_genome():
    tree = parse_newick("(L,(M,R));")
    genomes = [
        GenomeRecord("L", b"CCCCGGGGAC"),
        GenomeRecord("M", b"ACACACACAC"),
        GenomeRecord("R", b"TTTTAAAAAC"),
    ]
    left, right = tree.leaves[0], tree.leaves[-1]
    index = build_index(tree, genomes)
    assert side_query(index, index.forward, b"CGGG") == left
    assert side_query(index, index.reverse, b"CGGG") == left
    assert side_query(index, index.forward, b"TAAA") == right
    assert side_query(index, index.reverse, b"TAAA") == right
    assert side_query(index, index.forward, b"AC") == left
    assert side_query(index, index.reverse, b"AC") == right
    for pattern in (b"CCGGGGA", b"TTAAAAA", b"GGGACACTTTT", b"CCCCGGGGAC", b"TTTTAAAAAC"):
        _assert_matches_reference(tree, genomes, pattern, range(1, len(pattern) + 1))


def test_realistic_pangenome_matches_reference_after_save_and_load(tmp_path):
    # A 100 kB pangenome from the benchmark's generator, 9 of 30 reads novel.
    synth = benchmark_generator()
    rng = random.Random("differential:1")
    pangenome = synth.make_pangenome(rng, genomes=8, length=12_500)
    reads = synth.make_reads(rng, pangenome, 30, 150, error_rate=0.01, novel_share=0.3)
    tree = parse_newick(pangenome.newick)
    genomes = [GenomeRecord(name, seq) for name, seq in pangenome.genomes]
    assert sum(len(seq) for _, seq in pangenome.genomes) >= 100_000
    save_index(build_index(tree, genomes), tmp_path / "pangenome.pkm")
    index = load_index(tmp_path / "pangenome.pkm")
    answers = set()
    descents = 0
    for read in reads:
        for k in (1, 15, 31, 100):
            got, stats = classify_with_stats(index, read, k)
            assert got == naive_classify(tree, genomes, read, k), (read, k)
            answers.update(r.answer for r in got)
            descents += stats.descents if k == 31 else 0
    # absent k-mers, the root and vertices below it all occur
    assert None in answers and tree.root in answers and len(answers) > 3
    # Only live cuts are descended: about 0.3 descents per read byte here
    # at k = 31, against about 2.7 when every cut is.
    assert descents <= sum(map(len, reads)), descents


@pytest.mark.slow
def test_large_pangenome_load_memory_and_whole_genome_queries(tmp_path):
    # 8 x 25 kB from the benchmark's generator.  Loading keeps no copy of
    # the boundary prefixes, which would cost the phrase count times the
    # genome length; the index it returns is what the heap should hold.
    # Whole-genome queries add the tries' head sets of at most HEAD_CAP bytes a
    # head, plus a set entry and a bytes header: uncapped heads would grow
    # the heap by about 53 MB here, four times the index.  They also build
    # the grid nodes of the runs they query: a list slot per entry, 8 bytes
    # and at most an eighth more for list growth, and about 512 bytes of
    # objects per node (its key, tuple, three lists and dict slot).
    synth = benchmark_generator()
    rng = random.Random("scale:1")
    pangenome = synth.make_pangenome(rng, genomes=8, length=25_000)
    reads = synth.make_reads(rng, pangenome, 4, 150, error_rate=0.01, novel_share=0.25)
    tree = parse_newick(pangenome.newick)
    genomes = [GenomeRecord(name, seq) for name, seq in pangenome.genomes]
    save_index(build_index(tree, genomes), tmp_path / "large.pkm")
    mutated = bytearray(genomes[5].sequence)
    middle = len(mutated) // 2
    mutated[middle] = b"C"[0] if mutated[middle] != b"C"[0] else b"G"[0]
    patterns = [(genomes[i].sequence, len(genomes[i].sequence)) for i in (0, 3, 7)]
    patterns += [(bytes(mutated), len(mutated))] + [(read, 31) for read in reads]
    expected = [naive_classify(tree, genomes, pattern, k) for pattern, k in patterns]
    tracemalloc.start()
    try:
        index = load_index(tmp_path / "large.pkm")
        kept, peak = tracemalloc.get_traced_memory()
        for (pattern, k), want in zip(patterns, expected):
            assert classify(index, pattern, k) == want, k
        queried, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * kept, f"load peaked at {peak / 2**20:.1f} MB, kept {kept / 2**20:.1f} MB"
    heads = sum(len(table) for side in (index.forward, index.reverse)
                for trie in (side.suffix_trie, side.prefix_trie) for table in trie._heads.values())
    nodes = [node for side in (index.forward, index.reverse) for node in side.grid._nodes.values()]
    entries = sum(len(ys) + len(labels) + sum(map(len, table)) for ys, labels, table in nodes)
    assert queried - kept <= (HEAD_CAP + 64) * heads + 9 * entries + 512 * len(nodes), (
        f"queries grew the heap by {(queried - kept) / 2**20:.3f} MB for {heads} heads"
        f" and {len(nodes)} grid nodes of {entries} entries"
    )


@pytest.mark.slow
def test_400kb_pangenome_matches_reference_after_save_and_load(tmp_path):
    # 16 x 25 kB from the benchmark's generator: most of both parses comes
    # from LZ77's sampled gram index, the first genome's short phrases from
    # its fallback.  Reads at k = 31, a quarter of them novel, and
    # whole-genome k on three genomes and a mutated one.
    synth = benchmark_generator()
    rng = random.Random("lz77-scale:1")
    pangenome = synth.make_pangenome(rng, genomes=16, length=25_000)
    reads = synth.make_reads(rng, pangenome, 12, 150, error_rate=0.01, novel_share=0.25)
    tree = parse_newick(pangenome.newick)
    genomes = [GenomeRecord(name, seq) for name, seq in pangenome.genomes]
    assert sum(len(seq) for _, seq in pangenome.genomes) >= 400_000
    save_index(build_index(tree, genomes), tmp_path / "scale.pkm")
    index = load_index(tmp_path / "scale.pkm")
    for side in (index.forward, index.reverse):
        # Nodes only on runs of more than SMALL points, and tables over
        # block minima: with every suffix-trie node's box queried, each
        # side's grid keeps about 1 MB here.
        points = side.grid.points
        tracemalloc.start()
        try:
            grid = ContextGrid(points, "max" if side.is_reverse else "min")
            for lo, hi in node_intervals(side.suffix_trie):
                grid.range_best(lo, hi, 1, side.prefix_trie.size)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.points == points
        assert kept <= 4 * 2**20, f"the grid keeps {kept / 2**20:.2f} MB"
    mutated = bytearray(genomes[9].sequence)
    mutated[100] = b"C"[0] if mutated[100] != b"C"[0] else b"G"[0]
    patterns = [(read, 31) for read in reads]
    patterns += [(genomes[i].sequence, len(genomes[i].sequence)) for i in (0, 8, 15)]
    patterns += [(bytes(mutated), len(mutated))]
    answers = set()
    for pattern, k in patterns:
        got = classify(index, pattern, k)
        assert got == naive_classify(tree, genomes, pattern, k), k
        answers.update(r.answer for r in got)
    assert None in answers and len(answers) > 3


def _edge_case(name: str):
    """(newick, genomes, sentinel, patterns) of one named edge case."""
    rng = random.Random(name)
    if name == "caterpillar":
        # (((L0,L1),L2),...): leaf i sits 999 - i levels deep.  The genomes
        # are distinct and the patterns few, since the reference walks up
        # the tree once per genome holding a k-mer.
        newick = "L0"
        for i in range(1, 1000):
            newick = f"({newick},L{i})"
        seqs = set()
        while len(seqs) < 1000:
            seqs.add(bytes(rng.choice(b"ACGT") for _ in range(8)))
        seqs = sorted(seqs)
        rng.shuffle(seqs)
        patterns = [seqs[0] + seqs[1][:4], seqs[500][2:] + seqs[999]]
        return newick + ";", seqs, b"$", patterns
    if name == "ten_way":
        seqs = [bytes(rng.choice(b"ACGT") for _ in range(12)) for _ in range(10)]
        newick = "(" + ",".join(f"L{i}" for i in range(10)) + ");"
        return newick, seqs, b"$", [seqs[3] + seqs[7], seqs[9][::-1] + seqs[0][:5]]
    if name == "one_byte_genomes":
        return "((L0,L1),(L2,(L3,L4)));", [b"A", b"C", b"A", b"G", b"A"], b"$", [b"ACGTA"]
    if name == "identical_genomes":
        seqs = [b"GATTACAGATTTACA"] * 5
        return "((L0,L1),(L2,(L3,L4)));", seqs, b"$", [b"TTACAGATTTACAGG", b"CAGATT"]
    # every byte but the sentinel, spread over three genomes with repeats
    sentinel = bytes([int(name.rsplit("_", 1)[1], 16)])
    alphabet = bytes(b for b in range(256) if bytes([b]) != sentinel)
    pool = list(alphabet) + [rng.choice(alphabet) for _ in range(45)]
    rng.shuffle(pool)
    seqs = [bytes(pool[i::3]) for i in range(3)]
    return "(L0,(L1,L2));", seqs, sentinel, [seqs[1][10:40] + seqs[2][:30], seqs[0]]


@pytest.mark.parametrize(
    "case",
    [
        pytest.param("caterpillar", marks=pytest.mark.slow),
        "ten_way",
        "one_byte_genomes",
        "identical_genomes",
        "every_byte_but_24",
        "every_byte_but_00",
        "every_byte_but_ff",
    ],
)
def test_edge_cases_match_reference_after_save_and_load(case, tmp_path):
    newick, seqs, sentinel, patterns = _edge_case(case)
    tree = parse_newick(newick)
    genomes = [GenomeRecord(f"L{i}", seq) for i, seq in enumerate(seqs)]
    save_index(build_index(tree, genomes, sentinel), tmp_path / "edge.pkm")
    index = load_index(tmp_path / "edge.pkm")
    for pattern in patterns:
        for k in range(1, max(map(len, seqs)) + 1):
            got = classify(index, pattern, k)
            assert got == naive_classify(tree, genomes, pattern, k), (pattern, k)


def _family_text(family, rng, sentinel):
    """About 400 bytes of one repetitive or random family, without the sentinel."""
    if family == "fibonacci":
        a, b = b"A", b"AB"
        while len(b) < 400:
            a, b = b, b + a
        return b
    if family == "unary":
        return b"A" * 400
    if family == "period-7":
        return b"ACGTTGA" * 58
    if family == "nested-repeat":
        # X(i + 1) = X(i) c X(i): repeats inside repeats at every scale.
        text = b"GAT"
        for c in b"CTAGCAT":
            text = text + bytes([c]) + text
        return text[:400]
    alphabet = bytes(b for b in range(256) if b != sentinel)
    return bytes(rng.choice(alphabet) for _ in range(400))


@pytest.mark.parametrize("sentinel", [0x00, 0xFF], ids=["00", "ff"])
@pytest.mark.parametrize(
    "family", ["fibonacci", "unary", "period-7", "nested-repeat", "random-byte"]
)
def test_families_match_table_oracle_after_save_and_load(family, sentinel, tmp_path):
    # Four genomes of 70-160 bytes cut from one 400-byte text, every other
    # one with an edit, under a random tree; seven patterns: two whole
    # genomes, an edited window of 70-80 bytes of each genome and 80 bytes
    # that run across two genomes.
    rng = random.Random(f"{family}:{sentinel}")
    text = _family_text(family, rng, sentinel)
    seqs = []
    for g in range(4):
        start = rng.randrange(len(text) - 160)
        seq = bytearray(text[start : start + rng.randint(70, 160)])
        if g % 2:
            seq[rng.randrange(len(seq))] = rng.choice(b"ACGT")
        seqs.append(bytes(seq))
    names = [f"L{i}" for i in range(4)]
    tree = parse_newick(random_tree_newick(rng, names, multifurcating=sentinel == 0xFF))
    genomes = [GenomeRecord(name, seq) for name, seq in zip(names, seqs)]
    save_index(build_index(tree, genomes, bytes([sentinel])), tmp_path / "family.pkm")
    index = load_index(tmp_path / "family.pkm")
    patterns = [seqs[0], seqs[3], seqs[1][-40:] + seqs[2][:40]]
    for seq in seqs:
        start = rng.randrange(len(seq) - 69)
        window = bytearray(seq[start : start + 80])
        window[rng.randrange(len(window))] = rng.choice(b"ACGT")
        patterns.append(bytes(window))
    for pattern in patterns:
        for k in (1, 2, 3, 16, 31, 32, 33, 63, 64):
            got = classify(index, pattern, k)
            assert got == table_classify(tree, genomes, pattern, k), (pattern, k)
