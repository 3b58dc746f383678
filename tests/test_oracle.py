"""The brute-force reference itself, pinned on hand-checked values."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fixture_genomes,
    fixture_tree,
    kmer_occurrences,
    random_instance,
    random_pattern,
    table_classify,
)
from phylokmer.model import GenomeRecord, parse_newick
from phylokmer.oracle import naive_classify


def test_fixture_occurrences():
    tree, genomes = fixture_tree(), fixture_genomes()
    assert kmer_occurrences(tree, genomes, b"ACA") == {1, 2, 3}
    assert kmer_occurrences(tree, genomes, b"TAG") == {4, 5}
    assert kmer_occurrences(tree, genomes, b"GAC") == set()
    assert kmer_occurrences(tree, genomes, b"T") == {1, 2, 3, 4, 5}
    assert kmer_occurrences(tree, genomes, b"GATTAGATA") == {5}


def test_fixture_classification():
    tree, genomes = fixture_tree(), fixture_genomes()
    results = naive_classify(tree, genomes, b"TAGACA", 3)
    assert [r.position for r in results] == [1, 2, 3, 4]
    assert [r.kmer for r in results] == [b"TAG", b"AGA", b"GAC", b"ACA"]
    assert [r.answer for r in results] == [8, 6, None, 2]


def test_answer_is_smallest_enclosing_subtree():
    # The reported vertex must cover every occurrence leaf, and no child
    # subtree of it may cover them all.
    tree, genomes = fixture_tree(), fixture_genomes()
    for kmer, expected in ((b"TAG", 8), (b"ACA", 2), (b"T", 6), (b"GATTAGATA", 9)):
        hits = {tree.leaves[g - 1] for g in kmer_occurrences(tree, genomes, kmer)}
        answer = naive_classify(tree, genomes, kmer, len(kmer))[0].answer
        assert answer == expected

        def covers(vertex):
            stack, seen = [vertex], set()
            while stack:
                v = stack.pop()
                seen.add(v)
                stack.extend(tree.children[v])
            return hits <= seen

        assert covers(answer)
        assert not any(covers(child) for child in tree.children[answer])


def test_edge_cases():
    tree, genomes = fixture_tree(), fixture_genomes()
    assert naive_classify(tree, genomes, b"TAGACA", 7) == []
    with pytest.raises(ValueError):
        naive_classify(tree, genomes, b"TAGACA", 0)
    single = parse_newick("G;")
    results = naive_classify(single, [GenomeRecord("G", b"AC")], b"AC", 1)
    assert [r.answer for r in results] == [1, 1]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12))
def test_table_classify_matches_naive_classify(seed, k):
    # Up to 6 genomes of up to 24 bytes and patterns of up to 20 bytes, so
    # small k-mers recur across genomes and the table keeps wide spans.
    rng = random.Random(seed)
    tree, genomes = random_instance(rng, max_genomes=6, max_genome_len=24)
    for _ in range(3):
        pattern = random_pattern(rng, genomes, max_len=20)
        assert table_classify(tree, genomes, pattern, k) == naive_classify(
            tree, genomes, pattern, k
        ), (pattern, k)
