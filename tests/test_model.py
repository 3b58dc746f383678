"""Tree parsing, in-order numbering, FASTA handling, and concatenation."""
import random

import pytest

from helpers import (
    FIXTURE_NEWICK,
    FIXTURE_TEXT,
    fixture_genomes,
    fixture_tree,
    random_tree_newick,
)
from phylokmer.model import (
    FastaError,
    GenomeRecord,
    NewickError,
    build_concatenation,
    genome_of_position,
    parse_fasta,
    parse_newick,
    reverse_concatenation,
    tree_from_parents,
)


def test_fixture_tree_numbering():
    tree = fixture_tree()
    assert tree.vertex_count == 9
    assert tree.root == 6
    assert tree.leaves == (1, 3, 5, 7, 9)
    assert tree.leaf_labels() == ("GATTACAT", "AGATACAT", "GATACAT", "GATTAGAT", "GATTAGATA")
    assert tree.children[6] == (2, 8)
    assert tree.children[2] == (1, 4)
    assert tree.children[4] == (3, 5)
    assert tree.children[8] == (7, 9)
    for child in (2, 8):
        assert tree.parent[child] == 6
    assert tree.parent[6] == 0


def test_single_leaf_trees():
    for text in ("A;", "(A);"):
        tree = parse_newick(text)
        assert tree.vertex_count == 1
        assert tree.root == 1
        assert tree.leaves == (1,)
        assert tree.label_of(1) == "A"


def test_unary_chains_collapse():
    tree = parse_newick("(((A,B)));")
    assert tree.vertex_count == 3
    assert tree.leaves == (1, 3)
    assert tree.root == 2


def test_internal_labels_and_branch_lengths():
    tree = parse_newick("((A:0.1,B:0.2)ab:1.5,C)root;")
    assert tree.leaf_labels() == ("A", "B", "C")
    assert tree.label_of(2) == "ab"
    assert tree.label_of(tree.root) == "root"


def test_in_order_property_on_random_binary_trees():
    # In a binary tree the i-th leaf from the left gets vertex 2i - 1.
    rng = random.Random(101)
    for _ in range(50):
        count = rng.randint(1, 40)
        labels = [f"L{i}" for i in range(count)]
        tree = parse_newick(random_tree_newick(rng, labels))
        assert tree.vertex_count == 2 * count - 1
        assert tree.leaves == tuple(range(1, 2 * count, 2))


def test_in_order_children_ascend_through_parent():
    rng = random.Random(102)
    for _ in range(50):
        count = rng.randint(1, 30)
        labels = [f"L{i}" for i in range(count)]
        tree = parse_newick(random_tree_newick(rng, labels, multifurcating=True))
        for v in range(1, tree.vertex_count + 1):
            kids = tree.children[v]
            assert list(kids) == sorted(kids)
            for c in kids:
                assert tree.parent[c] == v
        # Every non-leaf vertex is numbered after its first child subtree.
        for v in range(1, tree.vertex_count + 1):
            if tree.children[v]:
                assert tree.children[v][0] < v < tree.children[v][-1]


def test_tree_from_parents_rebuilds_parsed_trees():
    rng = random.Random(103)
    for trial in range(40):
        labels = [f"L{i}" for i in range(rng.randint(1, 300))]
        tree = parse_newick(random_tree_newick(rng, labels, multifurcating=trial % 2 == 1))
        assert tree_from_parents(tree.parent, tree.labels) == tree


def test_tree_from_parents_rejects_swapped_numbers():
    # A binary tree's leaves hold exactly the odd numbers, so a leaf and an
    # internal vertex that trade numbers break the in-order numbering.
    rng = random.Random(104)
    for _ in range(50):
        tree = parse_newick(random_tree_newick(rng, [f"L{i}" for i in range(rng.randint(2, 40))]))
        u, w = rng.choice(tree.leaves), rng.randrange(2, tree.vertex_count, 2)
        swap = {u: w, w: u}
        parent, labels = list(tree.parent), list(tree.labels)
        for v in range(1, tree.vertex_count + 1):
            parent[swap.get(v, v)] = swap.get(tree.parent[v], tree.parent[v])
            labels[swap.get(v, v)] = tree.labels[v]
        with pytest.raises(ValueError, match="not numbered in order"):
            tree_from_parents(parent, labels)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "(A,B)",
        "(A,B));",
        "((A,B);",
        "(A,B); junk",
        "(,B);",
        "(A,);",
        "(A,,B);",
        "();",
        "(A,A);",
        "(A:x,B);",
        ";",
    ],
)
def test_newick_errors(bad):
    with pytest.raises(NewickError):
        parse_newick(bad)


def test_parse_fasta_basic():
    data = ">g1 description here\nacgt\nACGT\n>g2\nTT\n"
    records = parse_fasta(data)
    assert [r.name for r in records] == ["g1", "g2"]
    assert records[0].sequence == b"ACGTACGT"
    assert records[1].sequence == b"TT"


@pytest.mark.parametrize("byte", [0xDF, 0xFF], ids=["0xDF", "0xFF"])
def test_parse_fasta_uppercases_a_to_z_only(byte):
    # As text, 0xDF (ß) uppercases to "SS" and 0xFF (ÿ) to U+0178.
    records = parse_fasta(f">g1\nac{chr(byte)}gt\n")
    assert records[0].sequence == b"AC" + bytes([byte]) + b"GT"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "ACGT\n>g1\nACGT\n",
        ">g1\n>g2\nACGT\n",
        ">g1\nACGT\n>g1\nTT\n",
        ">g1\nAC$GT\n",
        ">\nACGT\n",
    ],
)
def test_parse_fasta_errors(bad):
    with pytest.raises(FastaError):
        parse_fasta(bad)


def test_build_concatenation_fixture():
    tree = fixture_tree()
    cat = build_concatenation(tree, fixture_genomes())
    assert cat.text == FIXTURE_TEXT
    assert len(cat.text) == 44
    assert cat.genome_count == 5
    assert cat.genome_spans[0] == (0, 8)
    assert cat.genome_spans[4] == (35, 44)


def test_build_concatenation_orders_by_leaf():
    tree = parse_newick("(B,A);")
    genomes = [GenomeRecord("A", b"TT"), GenomeRecord("B", b"CC")]
    cat = build_concatenation(tree, genomes)
    assert cat.text == b"CC$TT"


def test_build_concatenation_errors():
    tree = parse_newick("(A,B);")
    with pytest.raises(ValueError, match="B"):
        build_concatenation(tree, [GenomeRecord("A", b"TT")])
    with pytest.raises(ValueError):
        build_concatenation(
            tree,
            [GenomeRecord("A", b"TT"), GenomeRecord("B", b"CC"), GenomeRecord("C", b"GG")],
        )
    with pytest.raises(ValueError):
        build_concatenation(tree, [GenomeRecord("A", b"T$T"), GenomeRecord("B", b"CC")])


def test_genome_of_position_fixture():
    tree = fixture_tree()
    cat = build_concatenation(tree, fixture_genomes())
    assert genome_of_position(cat, 0) == 1
    assert genome_of_position(cat, 7) == 1
    assert genome_of_position(cat, 8) is None
    assert genome_of_position(cat, 9) == 2
    assert genome_of_position(cat, 43) == 5
    assert genome_of_position(cat, 44) == 5
    with pytest.raises(ValueError):
        genome_of_position(cat, -1)
    with pytest.raises(ValueError):
        genome_of_position(cat, 45)


def test_genome_of_position_matches_spans():
    tree = fixture_tree()
    cat = build_concatenation(tree, fixture_genomes())
    for pos in range(len(cat.text)):
        got = genome_of_position(cat, pos)
        if cat.text[pos] == cat.sentinel:
            assert got is None
        else:
            start, end = cat.genome_spans[got - 1]
            assert start <= pos < end


def test_reverse_concatenation():
    tree = fixture_tree()
    cat = build_concatenation(tree, fixture_genomes())
    rev = reverse_concatenation(cat)
    assert rev.text == cat.text[::-1]
    assert rev.genome_count == cat.genome_count
    n = len(cat.text)
    g = cat.genome_count
    for pos in range(n):
        fwd = genome_of_position(cat, n - 1 - pos)
        back = genome_of_position(rev, pos)
        if fwd is None:
            assert back is None
        else:
            # Genome r of the reversed text is genome g + 1 - r forward.
            assert back == g + 1 - fwd
