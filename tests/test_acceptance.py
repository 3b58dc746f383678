"""Acceptance criteria, one test per criterion.

Each test prints exactly one ``criterion N ...: PASS`` or ``... FAIL`` line
(visible with ``pytest -s``; ``pytest -v`` mirrors the verdicts) and enforces
its stated time budget.
"""
import random
import time
from pathlib import Path

import numpy as np

from helpers import (
    FIXTURE_TEXT,
    fixture_genomes,
    fixture_tree,
    random_instance,
    random_pattern,
    random_tree_newick,
    reconstruct,
    reference_lz77_boundaries,
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
from phylokmer.grid import ContextGrid
from phylokmer.lca import build_lca, lca
from phylokmer.lz77 import lz77_parse
from phylokmer.model import parse_newick
from phylokmer.tries import build_trie


def run_criterion(label, budget, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        ok = budget is None or elapsed <= budget
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, f"{label} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_1_worked_example():
    def body():
        tree = fixture_tree()
        index = build_index(tree, fixture_genomes())
        assert index.forward.text == FIXTURE_TEXT
        assert index.forward.parse.z == 12
        assert index.forward.parse.boundary_positions == (0, 1, 2, 3, 5, 6, 9, 11, 14, 19, 30, 35, 44)
        assert index.forward.suffix_set == (
            b"A", b"TA", b"ATA", b"GATTAGATA", b"C", b"G", b"AG", b"T", b"GATT",
        )
        assert index.forward.prefix_set == (
            b"", b"AGAT", b"AT", b"ATACAT", b"ATTACAT", b"CAT", b"TACAT", b"TTACAT",
        )
        assert index.forward.grid.points == (
            (1, 8, 1), (2, 6, 1), (3, 6, 3), (4, 1, 9), (5, 3, 1),
            (6, 4, 5), (6, 5, 1), (7, 4, 3), (8, 7, 1), (9, 2, 7),
        )
        assert side_query(index, index.forward, b"TAG") == 7
        assert side_query(index, index.reverse, b"TAG") == 9
        assert [r.answer for r in classify(index, b"TAGACA", 3)] == [8, 6, None, 2]
        assert classify(index, b"TAGACA", 7) == []

    run_criterion("criterion 1 (worked example end to end)", 1.0, body)


def test_criterion_2_oracle_equivalence():
    def body():
        rng = random.Random(1002)
        instances = 0
        checked = 0
        while instances < 200:
            tree, genomes = random_instance(rng, max_genomes=8, max_genome_len=64)
            index = build_index(tree, genomes)
            for _ in range(20):
                pattern = random_pattern(rng, genomes, max_len=32)
                for k in range(1, len(pattern) + 1):
                    got = classify(index, pattern, k)
                    want = naive_classify(tree, genomes, pattern, k)
                    assert got == want, (pattern, k, [g.name for g in genomes])
                    checked += 1
            instances += 1
        assert checked >= 200 * 20

    run_criterion("criterion 2 (oracle equivalence, 200 instances x 20 patterns, all k)", 60.0, body)


def test_criterion_3_factorization_reference():
    def body():
        rng = random.Random(1003)
        for trial in range(500):
            sigma = 1 + trial % 4
            length = rng.randint(1, 256)
            text = bytes(rng.choice(b"ACGT"[:sigma]) for _ in range(length))
            parse = lz77_parse(text)
            assert reconstruct(parse) == text
            assert list(parse.boundary_positions) == reference_lz77_boundaries(text)

    run_criterion("criterion 3 (factorization round-trip and greedy maximality, 500 strings)", 10.0, body)


def test_criterion_4_grid_versus_linear_scan():
    def body():
        rng = random.Random(1004)
        for trial in range(1000):
            if trial < 900:
                side = rng.randint(1, 24)
                count = rng.randint(0, min(side * side, 80))
            elif trial < 990:
                side = rng.randint(30, 60)
                count = rng.randint(100, min(side * side, 1200))
            else:
                side = 110
                count = 10_000
            cells = rng.sample(range(side * side), count)
            points = [(c // side + 1, c % side + 1, rng.randint(1, 10**6)) for c in cells]
            aggregator = "min" if trial % 2 == 0 else "max"
            grid = ContextGrid(points, aggregator)

            xs = np.array([p[0] for p in points], dtype=np.int64)
            ys = np.array([p[1] for p in points], dtype=np.int64)
            labels = np.array([p[2] for p in points], dtype=np.int64)
            reduce = np.min if aggregator == "min" else np.max

            for _ in range(100):
                x1 = rng.randint(1, side + 1)
                x2 = rng.randint(x1, side + 1)
                y1 = rng.randint(1, side + 1)
                y2 = rng.randint(y1, side + 1)
                got = grid.range_best(x1, x2, y1, y2)
                if count:
                    mask = (xs >= x1) & (xs <= x2) & (ys >= y1) & (ys <= y2)
                    want = int(reduce(labels[mask])) if mask.any() else None
                else:
                    want = None
                assert got == want, (trial, (x1, x2, y1, y2))

    run_criterion("criterion 4 (grid versus linear scan, 1000 grids x 100 boxes)", 30.0, body)


def test_criterion_5_blind_descent_false_positives():
    def body():
        rng = random.Random(1005)
        rejected = 0
        attempts = 0
        while rejected < 100:
            assert attempts < 20_000, "could not manufacture enough false positives"
            attempts += 1
            # Strings sharing a long core so descents skip over it blindly.
            core = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(6, 18)))
            tails = rng.sample([b"A", b"C", b"G", b"T"], rng.randint(2, 4))
            strings = sorted(core + t for t in tails)
            trie = build_trie(strings)
            probe = bytearray(strings[rng.randrange(len(strings))])
            pos = rng.randint(1, len(core) - 1)
            original = probe[pos]
            probe[pos] = rng.choice([b for b in b"ACGT" if b != original])
            probe = bytes(probe)
            if any(s.startswith(probe) for s in strings):
                continue
            locus = trie.blind_descend(probe)
            if locus is None or not locus.candidate:
                continue
            assert trie.verify_locus(locus, probe) is None, (strings, probe)
            rejected += 1
        assert rejected >= 100

    run_criterion("criterion 5 (blind-descent false positives all rejected)", None, body)


def test_criterion_6_lca_versus_parent_walk():
    def body():
        rng = random.Random(1006)

        def walk(tree, u, v):
            seen = set()
            while u:
                seen.add(u)
                u = tree.parent[u]
            while v not in seen:
                v = tree.parent[v]
            return v

        pairs = 0
        while pairs < 10_000:
            leaf_count = rng.randint(1, 500)
            labels = [f"L{i}" for i in range(leaf_count)]
            tree = parse_newick(random_tree_newick(rng, labels, multifurcating=rng.random() < 0.5))
            assert tree.vertex_count <= 1000
            structure = build_lca(tree)
            for _ in range(500):
                u = rng.randint(1, tree.vertex_count)
                v = rng.randint(1, tree.vertex_count)
                assert lca(structure, u, v) == walk(tree, u, v)
                pairs += 1

    run_criterion("criterion 6 (lca versus parent walk, 10000 pairs)", None, body)


def test_criterion_7_descent_budget():
    def body():
        rng = random.Random(1007)
        setups = [(fixture_tree(), fixture_genomes())]
        for _ in range(30):
            setups.append(random_instance(rng, max_genomes=6, max_genome_len=48))
        for tree, genomes in setups:
            index = build_index(tree, genomes)
            for _ in range(8):
                pattern = random_pattern(rng, genomes, max_len=32)
                m = len(pattern)
                for k in sorted({1, 2, (m + 1) // 2, m}):
                    _, stats = classify_with_stats(index, pattern, k)
                    assert stats.descents <= 4 * m, (pattern, k, stats.descents)

    run_criterion("criterion 7 (at most 4m descents per classification)", None, body)


def test_criterion_8_save_load_identity(tmp_path):
    def body():
        rng = random.Random(1008)
        cases = [(fixture_tree(), fixture_genomes())]
        cases.append(random_instance(rng, max_genomes=6, max_genome_len=48))
        for n, (tree, genomes) in enumerate(cases):
            index = build_index(tree, genomes)
            path = tmp_path / f"case{n}.idx"
            save_index(index, path)
            loaded = load_index(path)
            assert loaded.forward.grid.points == index.forward.grid.points
            assert loaded.reverse.grid.points == index.reverse.grid.points
            for _ in range(50):
                pattern = random_pattern(rng, genomes, max_len=20)
                k = rng.randint(1, len(pattern))
                assert classify(loaded, pattern, k) == classify(index, pattern, k)
        fixture_loaded = load_index(tmp_path / "case0.idx")
        assert [r.answer for r in classify(fixture_loaded, b"TAGACA", 3)] == [8, 6, None, 2]

    run_criterion("criterion 8 (saved and loaded indexes classify identically)", None, body)


def test_criterion_9_performance_scope_documented():
    def body():
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8").lower()
        assert "asymptotic" in text
        assert "out of scope" in text

    run_criterion("criterion 9 (performance scope documented)", None, body)
