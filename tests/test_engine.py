"""End-to-end index behavior: side queries, classification, descent budget."""
import dataclasses
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from helpers import fixture_genomes, fixture_tree, random_instance, random_pattern
from phylokmer import (
    build_index,
    classify,
    classify_with_stats,
    load_index,
    naive_classify,
    save_index,
    side_query,
)
from phylokmer.model import GenomeRecord, parse_newick
from phylokmer.oracle import kmer_occurrences


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


def _benchmark_generator():
    """The benchmark's seeded pangenome and read generator, ``perfbench/synth.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"
    spec = importlib.util.spec_from_file_location("perfbench_synth", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_realistic_pangenome_matches_reference_after_save_and_load(tmp_path):
    # A 100 kB pangenome from the benchmark's generator, 9 of 30 reads novel.
    synth = _benchmark_generator()
    rng = random.Random("differential:1")
    pangenome = synth.make_pangenome(rng, genomes=8, length=12_500)
    reads = synth.make_reads(rng, pangenome, 30, 150, error_rate=0.01, novel_share=0.3)
    tree = parse_newick(pangenome.newick)
    genomes = [GenomeRecord(name, seq) for name, seq in pangenome.genomes]
    assert sum(len(seq) for _, seq in pangenome.genomes) >= 100_000
    save_index(build_index(tree, genomes), tmp_path / "pangenome.pkm")
    index = load_index(tmp_path / "pangenome.pkm")
    answers = set()
    for read in reads:
        for k in (1, 15, 31, 100):
            got = classify(index, read, k)
            assert got == naive_classify(tree, genomes, read, k), (read, k)
            answers.update(r.answer for r in got)
    # absent k-mers, the root and vertices below it all occur
    assert None in answers and tree.root in answers and len(answers) > 3
