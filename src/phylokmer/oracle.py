"""Brute-force reference classifier, independent of the index engine.

Finds k-mer occurrences by direct substring scans over the genome sequences
and computes subtree roots by walking parent pointers, so its answers can
stand against the engine's without sharing any search machinery.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .engine import KmerResult
from .model import GenomeRecord, PhyloTree


def _leaf_sequences(tree: PhyloTree, genomes: Iterable[GenomeRecord]) -> list[bytes]:
    by_name = {rec.name: rec.sequence for rec in genomes}
    out = []
    for v in tree.leaves:
        label = tree.labels[v] or ""
        if label not in by_name:
            raise ValueError(f"no genome provided for leaf {label!r}")
        out.append(by_name[label])
    return out


def _walk_lca(tree: PhyloTree, u: int, v: int) -> int:
    ancestors = set()
    node = u
    while node:
        ancestors.add(node)
        node = tree.parent[node]
    node = v
    while node not in ancestors:
        node = tree.parent[node]
    return node


def naive_classify(
    tree: PhyloTree, genomes: Sequence[GenomeRecord], pattern: bytes, k: int
) -> list[KmerResult]:
    """Reference answers for every k-mer of ``pattern``.

    The answer is the parent-walk LCA of the leaves of all genomes
    containing the k-mer, or None when no genome does.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    sequences = _leaf_sequences(tree, genomes)
    results: list[KmerResult] = []
    for i in range(len(pattern) - k + 1):
        kmer = pattern[i : i + k]
        hits = [tree.leaves[g] for g, seq in enumerate(sequences) if kmer in seq]
        if not hits:
            answer = None
        else:
            answer = hits[0]
            for leaf in hits[1:]:
                answer = _walk_lca(tree, answer, leaf)
        results.append(KmerResult(position=i + 1, kmer=kmer, answer=answer))
    return results
