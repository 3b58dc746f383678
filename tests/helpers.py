"""Shared test utilities: the worked fixture, independent reference
implementations, and random data generators."""
from __future__ import annotations

import random
from bisect import bisect_left
from typing import Iterable, NamedTuple

from phylokmer.engine import HEAD_CAP, KmerIndex, QueryStats, SideIndex
from phylokmer.lz77 import Lz77Parse
from phylokmer.model import (
    Concatenation,
    GenomeRecord,
    PhyloTree,
    genome_of_position,
    parse_newick,
)
from phylokmer.oracle import _leaf_sequences
from phylokmer.tries import CompactTrie, _Node

FIXTURE_NEWICK = "((GATTACAT,(AGATACAT,GATACAT)),(GATTAGAT,GATTAGATA));"
FIXTURE_NAMES = ("GATTACAT", "AGATACAT", "GATACAT", "GATTAGAT", "GATTAGATA")
FIXTURE_TEXT = b"GATTACAT$AGATACAT$GATACAT$GATTAGAT$GATTAGATA"


def fixture_tree() -> PhyloTree:
    return parse_newick(FIXTURE_NEWICK)


def fixture_genomes() -> list[GenomeRecord]:
    # Genome sequences equal their names in this fixture.
    return [GenomeRecord(name, name.encode()) for name in FIXTURE_NAMES]


def reference_longest_match(text: bytes, i: int) -> int:
    """Longest previous match at i by trying every source position."""
    n = len(text)
    best = 0
    for j in range(i):
        length = 0
        while i + length < n and text[j + length] == text[i + length]:
            length += 1
        if length > best:
            best = length
    return best


def reference_lz77_boundaries(text: bytes) -> list[int]:
    """Quadratic greedy factorization; returns phrase starts plus the end."""
    n = len(text)
    bounds = []
    i = 0
    while i < n:
        bounds.append(i)
        best = reference_longest_match(text, i)
        if i + best < n:
            i += best + 1
        else:
            i += best
    bounds.append(n)
    return bounds


def reconstruct(parse: Lz77Parse) -> bytes:
    """Decode the parse back into the original text.

    Copies byte by byte so self-overlapping sources reconstruct correctly.
    """
    out = bytearray()
    for p, (start, length, src) in enumerate(
        zip(parse.boundary_positions, parse.match_lens, parse.sources)
    ):
        if length:
            if not 0 <= src < start:
                raise ValueError("corrupt phrase: bad source")
            for k in range(length):
                out.append(out[src + k])
        if p < len(parse.literals):
            out.append(parse.literals[p])
    return bytes(out)


def kmer_occurrences(tree: PhyloTree, genomes, kmer: bytes) -> set[int]:
    """1-based ordinals (in leaf order) of the genomes containing ``kmer``."""
    if not kmer:
        raise ValueError("empty k-mer")
    return {i + 1 for i, seq in enumerate(_leaf_sequences(tree, genomes)) if kmer in seq}


def phrase_texts(parse: Lz77Parse, text: bytes) -> list[bytes]:
    """The byte content of each phrase, sliced from the original text."""
    bounds = parse.boundary_positions
    return [text[start:end] for start, end in zip(bounds, bounds[1:])]


def max_suffix_of_phrase(phrase_text: bytes, sentinel: int = 0x24) -> bytes:
    """Longest sentinel-free suffix: everything after the last sentinel."""
    cut = phrase_text.rfind(sentinel)
    return phrase_text if cut < 0 else phrase_text[cut + 1 :]


def max_prefix_at(text: bytes, pos: int, sentinel: int = 0x24) -> bytes:
    """Longest sentinel-free prefix of text[pos:]; empty at end of text."""
    if not 0 <= pos <= len(text):
        raise ValueError(f"position {pos} out of range 0..{len(text)}")
    cut = text.find(sentinel, pos)
    return text[pos:] if cut < 0 else text[pos:cut]


class ByteContext(NamedTuple):
    """A boundary context with its suffix and prefix copied out as bytes."""

    boundary_pos: int
    suffix: bytes
    prefix: bytes
    genome: int


def reference_contexts(concatenation: Concatenation, parse: Lz77Parse) -> list[ByteContext]:
    """Boundary contexts by a sentinel search per phrase and per boundary."""
    text = concatenation.text
    sentinel = concatenation.sentinel
    out = []
    bounds = parse.boundary_positions
    for start, end in zip(bounds, bounds[1:]):
        suffix = max_suffix_of_phrase(text[start:end], sentinel)
        if suffix:
            prefix = max_prefix_at(text, end, sentinel)
            genome = genome_of_position(concatenation, end - 1)
            out.append(ByteContext(end, suffix, prefix, genome))
    return out


def reference_context_sets(
    concatenation: Concatenation, parse: Lz77Parse
) -> tuple[tuple[bytes, ...], tuple[bytes, ...], list[ByteContext]]:
    """Suffix set (co-lex sorted), retained prefix set (lex sorted) and
    contexts, with every context string copied out and sorted as bytes."""
    text = concatenation.text
    sentinel = concatenation.sentinel
    spans = concatenation.genome_spans
    bounds = parse.boundary_positions
    contexts: list[ByteContext] = []
    g = 0
    for start, end in zip(bounds, bounds[1:]):
        if text[end - 1] == sentinel:
            continue
        while spans[g][1] < end:
            g += 1
        g_start, g_end = spans[g]
        contexts.append(ByteContext(end, text[max(start, g_start) : end], text[end:g_end], g + 1))
    suffixes = tuple(sorted({c.suffix for c in contexts}, key=lambda s: s[::-1]))
    return suffixes, tuple(sorted({c.prefix for c in contexts})), contexts


def reference_grid_points(
    contexts: list[ByteContext],
    suffixes: tuple[bytes, ...],
    prefixes: tuple[bytes, ...],
    aggregate: str,
    leaf_vertices,
) -> list[tuple[int, int, int]]:
    """Grid points keyed through byte-string rank dicts."""
    x_rank = {s: i + 1 for i, s in enumerate(suffixes)}
    y_rank = {p: i + 1 for i, p in enumerate(prefixes)}
    pick = min if aggregate == "min" else max
    best: dict[tuple[int, int], int] = {}
    for ctx in contexts:
        key = (x_rank[ctx.suffix], y_rank[ctx.prefix])
        vertex = leaf_vertices[ctx.genome - 1]
        best[key] = pick(best[key], vertex) if key in best else vertex
    return [(x, y, label) for (x, y), label in sorted(best.items())]


def reference_trie(strings: list[bytes]) -> _Node:
    """Root of the compact trie over sorted, distinct ``strings``, built one
    node at a time by grouping each node's strings on their next byte."""
    root = _Node(lo=1, hi=len(strings), depth=0)
    if not strings:
        return root
    work = [(root, 0, len(strings))]
    while work:
        node, i, j = work.pop()
        depth = node.depth
        k = i
        if len(strings[k]) == depth:
            node.terminal_rank = k + 1
            k += 1
        while k < j:
            first = strings[k][depth]
            g = k + 1
            while g < j and strings[g][depth] == first:
                g += 1
            # Edge label: common prefix of the group, cut where its first
            # (shortest possible) member ends.
            if g - k == 1:
                child_depth = len(strings[k])
            else:
                a, b = strings[k], strings[g - 1]
                limit = min(len(a), len(b))
                child_depth = depth
                while child_depth < limit and a[child_depth] == b[child_depth]:
                    child_depth += 1
            child = node.children[first] = _Node(lo=k + 1, hi=g, depth=child_depth)
            work.append((child, k, g))
            k = g
    return root


def trie_shape(node: _Node) -> list[tuple]:
    """Every node's (lo, hi, depth, terminal_rank, child keys), in preorder."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        out.append((n.lo, n.hi, n.depth, n.terminal_rank, list(n.children)))
        stack.extend(reversed(list(n.children.values())))
    return out


def string_at(trie: CompactTrie, rank: int) -> bytes:
    """The set string with the given 1-based rank, found by walking down to its terminal."""
    if not 1 <= rank <= trie.size:
        raise ValueError(f"rank {rank} out of range 1..{trie.size}")
    node = trie.root
    while node.terminal_rank != rank:
        node = next(c for c in node.children.values() if c.lo <= rank <= c.hi)
    pos = trie.refs[rank - 1][0]
    return trie.text[pos : pos + node.depth]


def prefix_intervals(trie: CompactTrie, pattern: bytes) -> tuple[list[int], list[int]]:
    """Verified rank intervals ``(lo[L], hi[L])`` for every prefix length L of
    ``pattern`` that some set string starts with, read off one ``descend``
    chain; both lists are empty for an empty trie."""
    length, depths, nodes = trie.descend(pattern)
    chain = [nodes[bisect_left(depths, L)] for L in range(length + 1)]
    return [node.lo for node in chain], [node.hi for node in chain]


def split_loops(
    index: KmerIndex,
    side: SideIndex,
    pattern: bytes,
    k: int,
    positions: Iterable[int],
    live_only: bool = True,
) -> tuple[dict[int, int | None], QueryStats]:
    """The min (forward) or max (reverse) grid label of each k-mer of
    ``pattern`` at the 0-based ``positions``, by one split loop per k-mer,
    and the stats of those loops.

    A loop visits its cuts in ascending order on the side's oriented
    pattern and stops at the side's leftmost (rightmost) leaf.  Descents are
    memoized per cut and trie family across the loops; with ``live_only``
    a loop skips the cuts that fail the engine's head-table test.
    """
    rev = side.is_reverse
    text, flipped = (pattern[::-1], pattern) if rev else (pattern, pattern[::-1])
    m = len(text)
    h = min(1 << ((k + 1).bit_length() - 2), HEAD_CAP)
    alpha_heads, beta_heads = side.head_tables(h)
    memo: dict[tuple[int, int], tuple] = {}
    stats = QueryStats()

    def descend(family: int, c: int, part: bytes) -> tuple:
        """Family 0 is the suffix trie (alpha parts), 1 the prefix trie."""
        if (family, c) not in memo:
            stats.descents += 1
            stats.verifications += 1
            memo[family, c] = (side.suffix_trie, side.prefix_trie)[family].descend(part)
        return memo[family, c]

    leaves = index.tree.leaves
    target = leaves[-1] if rev else leaves[0]
    labels: dict[int, int | None] = {}
    for pos in positions:
        i = m - k - pos if rev else pos
        best = None
        for c in range(i + 1, i + k + 1):
            if live_only and not (
                flipped[m - c : m - c + h] in alpha_heads or text[c : c + h] in beta_heads
            ):
                continue
            j = c - i
            a_len, a_depths, a_nodes = descend(0, c, flipped[m - c : m - c + k])
            if j > a_len:
                continue
            if j == k:
                if not side.prefix_trie.size:
                    continue
                y1, y2 = 1, side.prefix_trie.size
            else:
                b_len, b_depths, b_nodes = descend(1, c, text[c : c + k - 1])
                if k - j > b_len:
                    continue
                node = b_nodes[bisect_left(b_depths, k - j)]
                y1, y2 = node.lo, node.hi
            node = a_nodes[bisect_left(a_depths, j)]
            stats.grid_queries += 1
            label = side.grid.range_best(node.lo, node.hi, y1, y2)
            if label is not None and (best is None or (label > best if rev else label < best)):
                best = label
                if best == target:
                    break
        labels[pos] = best
    return labels, stats


def all_cuts_best(index: KmerIndex, side: SideIndex, pattern: bytes, k: int) -> list[int | None]:
    """The label of every k-mer of ``pattern`` on ``side``, by pattern
    position, from split loops that visit every cut: no live-cut filter."""
    positions = range(len(pattern) - k + 1)
    labels, _ = split_loops(index, side, pattern, k, positions, live_only=False)
    return [labels[i] for i in positions]


def candidate_prefixes(concatenation: Concatenation, parse: Lz77Parse) -> tuple[bytes, ...]:
    """Distinct maximal prefixes at every boundary (position 0 and end included), lex sorted."""
    text = concatenation.text
    sentinel = concatenation.sentinel
    return tuple(sorted({max_prefix_at(text, b, sentinel) for b in parse.boundary_positions}))


def random_tree_newick(rng: random.Random, labels: list[str], multifurcating: bool = False) -> str:
    """Random topology over the given leaf labels, as a Newick string."""
    nodes = list(labels)
    rng.shuffle(nodes)
    while len(nodes) > 1:
        arity = rng.randint(2, min(4, len(nodes))) if multifurcating else 2
        group = [nodes.pop(rng.randrange(len(nodes))) for _ in range(arity)]
        nodes.append("(" + ",".join(group) + ")")
    return nodes[0] + ";"


def random_instance(
    rng: random.Random, max_genomes: int = 8, max_genome_len: int = 64
) -> tuple[PhyloTree, list[GenomeRecord]]:
    """Random tree plus random ACGT genomes; genome list order is shuffled."""
    count = rng.randint(1, max_genomes)
    names = [f"G{i}" for i in range(1, count + 1)]
    tree = parse_newick(random_tree_newick(rng, names, multifurcating=rng.random() < 0.3))
    genomes = [
        GenomeRecord(name, random_dna(rng, rng.randint(1, max_genome_len)))
        for name in names
    ]
    rng.shuffle(genomes)
    return tree, genomes


def random_dna(rng: random.Random, length: int) -> bytes:
    return bytes(rng.choice(b"ACGT") for _ in range(length))


def random_pattern(rng: random.Random, genomes: list[GenomeRecord], max_len: int = 32) -> bytes:
    """Query pattern: usually a (possibly mutated) slice of some genome so
    that occurring k-mers are actually exercised, otherwise random DNA."""
    length = rng.randint(1, max_len)
    if genomes and rng.random() < 0.65:
        seq = rng.choice(genomes).sequence
        start = rng.randrange(len(seq))
        piece = seq[start : start + length]
        pattern = bytearray(piece)
        while len(pattern) < length:
            pattern.append(rng.choice(b"ACGT"))
        for _ in range(rng.randint(0, 2)):
            pattern[rng.randrange(len(pattern))] = rng.choice(b"ACGT")
        return bytes(pattern)
    return random_dna(rng, length)
