"""Shared test utilities: the worked fixture, independent reference
implementations, and random data generators."""
from __future__ import annotations

import random
from bisect import bisect_left

from phylokmer.contexts import BoundaryContext
from phylokmer.lz77 import Lz77Parse
from phylokmer.model import (
    Concatenation,
    GenomeRecord,
    PhyloTree,
    genome_of_position,
    parse_newick,
)
from phylokmer.tries import CompactTrie

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


def phrase_texts(parse: Lz77Parse, text: bytes) -> list[bytes]:
    """The byte content of each phrase, sliced from the original text."""
    return [text[p.start : p.start + p.length] for p in parse.phrases]


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


def reference_contexts(concatenation: Concatenation, parse: Lz77Parse) -> list[BoundaryContext]:
    """Boundary contexts by a sentinel search per phrase and per boundary."""
    text = concatenation.text
    sentinel = concatenation.sentinel
    out = []
    for phrase in parse.phrases:
        end = phrase.start + phrase.length
        suffix = max_suffix_of_phrase(text[phrase.start : end], sentinel)
        if suffix:
            prefix = max_prefix_at(text, end, sentinel)
            genome = genome_of_position(concatenation, end - 1)
            out.append(BoundaryContext(end, suffix, prefix, genome))
    return out


def string_at(trie: CompactTrie, rank: int) -> bytes:
    """The set string with the given 1-based rank, found by walking down to its terminal."""
    if not 1 <= rank <= trie.size:
        raise ValueError(f"rank {rank} out of range 1..{trie.size}")
    node = trie.root
    while node.terminal_rank != rank:
        node = next(c for c in node.children.values() if c.lo <= rank <= c.hi)
    return trie._access(rank - 1, 0, node.depth)


def prefix_intervals(trie: CompactTrie, pattern: bytes) -> tuple[list[int], list[int]]:
    """Verified rank intervals ``(lo[L], hi[L])`` for every prefix length L of
    ``pattern`` that some set string starts with, read off one ``descend``
    chain; both lists are empty for an empty trie."""
    length, depths, nodes = trie.descend(pattern)
    chain = [nodes[bisect_left(depths, L)] for L in range(length + 1)]
    return [node.lo for node in chain], [node.hi for node in chain]


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
