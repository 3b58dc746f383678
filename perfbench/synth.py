"""Seeded synthetic pangenomes and reads for the benchmark.

A random root sequence is mutated down a random binary tree (SNPs plus
small indels) under a molecular clock, so every leaf genome carries the
same number of mutation events from the root.  Reads are windows of
member genomes with substitution errors, or uniformly random "novel" DNA,
spread evenly so that any prefix of the read list is a fair sample.  Everything derives
from one ``random.Random`` seeded with a string, so the same workload name
and seed always give byte-identical files and reads.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

BASES = b"ACGT"


@dataclass(frozen=True)
class Pangenome:
    newick: str
    genomes: tuple[tuple[str, bytes], ...]  # (leaf label, sequence), leaf order

    def fasta(self, width: int = 80) -> str:
        lines = []
        for name, seq in self.genomes:
            lines.append(f">{name}")
            text = seq.decode("ascii")
            lines.extend(text[i : i + width] for i in range(0, len(text), width))
        return "\n".join(lines) + "\n"


def _random_dna(rng: random.Random, length: int) -> bytes:
    return bytes(rng.choices(BASES, k=length))


def _mutate(rng: random.Random, seq: bytes, events: int, indel_share: float) -> bytes:
    out = bytearray(seq)
    for _ in range(events):
        pos = rng.randrange(len(out))
        if rng.random() >= indel_share:
            out[pos] = rng.choice([b for b in BASES if b != out[pos]])
        elif rng.random() < 0.5:
            size = rng.randint(1, 3)
            out[pos:pos] = _random_dna(rng, size)
        elif len(out) > 4:
            del out[pos : pos + rng.randint(1, 3)]
    return bytes(out)


def _random_topology(rng: random.Random, labels: list[str]):
    """Nested 2-tuples over ``labels``: shuffled leaves, each group split at a
    random point in its middle third, so shapes vary but stay near balanced."""
    labels = list(labels)
    rng.shuffle(labels)

    def split(group):
        if len(group) == 1:
            return group[0]
        edge = max(1, len(group) // 3)
        cut = rng.randint(edge, len(group) - edge)
        return (split(group[:cut]), split(group[cut:]))

    return split(labels)


def _height(node) -> int:
    return 0 if isinstance(node, str) else 1 + max(_height(c) for c in node)


def make_pangenome(
    rng: random.Random,
    genomes: int,
    length: int,
    divergence: float = 0.01,
    indel_share: float = 0.1,
) -> Pangenome:
    """A random binary tree over ``genomes`` leaves and one genome per leaf.

    Every root-to-leaf path carries ``round(divergence * length)`` mutation
    events, spread over its edges in proportion to the drop in subtree
    height along each edge (a molecular clock); a share ``indel_share`` of
    the events are 1-3 bp insertions or deletions.
    """
    root = _random_topology(rng, [f"g{i:02d}" for i in range(1, genomes + 1)])
    sequences: dict[str, bytes] = {}
    order: list[str] = []
    # Depth-first, children left to right, so ``order`` is the leaf order.
    work = [(root, _random_dna(rng, length), round(divergence * length))]
    while work:
        node, seq, budget = work.pop()
        if isinstance(node, str):
            sequences[node] = _mutate(rng, seq, budget, indel_share)
            order.append(node)
            continue
        height = _height(node)
        for child in reversed(node):
            events = round(budget * (height - _height(child)) / height)
            work.append((child, _mutate(rng, seq, events, indel_share), budget - events))

    def newick(node) -> str:
        if isinstance(node, str):
            return node
        return "(" + ",".join(newick(c) for c in node) + ")"

    return Pangenome(newick(root) + ";", tuple((name, sequences[name]) for name in order))


def _spread(rng: random.Random, count: int, share: float) -> list[int]:
    """For i < count, how many of ``share * (i + 1)`` events fall on item i:
    events spread evenly from a random phase, so every prefix of the list
    gets its share to within one event."""
    phase = rng.random()
    return [int((i + 1) * share + phase) - int(i * share + phase) for i in range(count)]


def make_reads(
    rng: random.Random,
    pangenome: Pangenome,
    count: int,
    length: int,
    error_rate: float,
    novel_share: float,
) -> list[bytes]:
    """``count`` reads: member windows with substitution errors, or random DNA.

    Novel reads, the member reads' genomes and start positions, and their
    error counts are spread evenly over the list (start positions follow a
    golden-ratio sequence from a random phase), so any prefix of the list
    is a fair sample: a share ``novel_share`` of novel reads, every genome
    equally often, and ``error_rate * length`` errors per read on average.
    """
    novel = _spread(rng, count, novel_share)
    errors = _spread(rng, count, error_rate * length)
    genome_order = list(range(len(pangenome.genomes)))
    rng.shuffle(genome_order)
    phase = rng.random()
    reads = []
    member = 0
    for i in range(count):
        if novel[i]:
            reads.append(_random_dna(rng, length))
            continue
        _, seq = pangenome.genomes[genome_order[member % len(genome_order)]]
        where = (phase + member * 0.6180339887498949) % 1.0
        start = int(where * (len(seq) - length + 1))
        member += 1
        read = bytearray(seq[start : start + length])
        for pos in rng.sample(range(length), errors[i]):
            read[pos] = rng.choice([b for b in BASES if b != read[pos]])
        reads.append(bytes(read))
    return reads
