"""Two-sided index construction and k-mer classification.

The forward side indexes the genome concatenation, the reverse side its
literal reversal; each side maps a k-mer to the leftmost (respectively
rightmost) genome containing it, via phrase-boundary contexts on a labeled
grid.  The answer for a k-mer is the lowest common ancestor of those two
leaves, the root of the smallest subtree containing every genome where the
k-mer occurs.  k is chosen per query, never at build time.

Per classify call, trie work is shared across k-mers: one descent per
pattern position and trie family (at most 4m descents for a pattern of
length m), memoized for the call.  Each descent is verified once and keeps
its verified length and node chain: a split whose alpha or beta part is
longer than that length is skipped outright, and only a split that
reaches the grid bisects the chains for its rank box.  Both sides run one
split loop, the reverse side over the reversed pattern; a side stops at
its leftmost (rightmost) leaf, and the reverse side is not asked about a
k-mer the forward side found nowhere.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import contexts as contexts_mod
from . import lz77 as lz77_mod
from .grid import ContextGrid
from .lca import LcaStructure, build_lca
from .model import (
    Concatenation,
    GenomeRecord,
    PhyloTree,
    build_concatenation,
    reverse_concatenation,
)
from .tries import CompactTrie, build_trie
from .tries import prefix_access  # noqa: F401 -- re-exported, tests read refs with it


@dataclass(frozen=True)
class SideIndex:
    """One direction of the index: parse, context refs, tries, and labeled grid.

    ``text`` is the (possibly reversed) concatenation.  Context strings live
    only as (start, length) refs: ``suffix_refs`` per suffix-set string in
    co-lex order, into ``text[::-1]`` where the string reads reversed, and
    ``prefix_refs`` per retained prefix in lex order, into ``text``; list
    position + 1 is the string's rank and grid coordinate.  ``suffix_trie``
    is built over the reversed suffix strings, so descending with a
    reversed k-mer fragment yields the co-lex rank range of suffixes ending
    with that fragment; ``prefix_trie`` covers the prefixes.  Both tries
    are built from the refs, and ``suffix_set`` and ``prefix_set`` read the
    strings back from them on each access, for tests and counts only.
    """

    text: bytes
    parse: lz77_mod.Lz77Parse
    suffix_refs: tuple[tuple[int, int], ...]
    prefix_refs: tuple[tuple[int, int], ...]
    suffix_trie: CompactTrie
    prefix_trie: CompactTrie
    grid: ContextGrid
    is_reverse: bool

    @property
    def suffix_set(self) -> tuple[bytes, ...]:
        end = len(self.text)
        return tuple(self.text[end - start - n : end - start] for start, n in self.suffix_refs)

    @property
    def prefix_set(self) -> tuple[bytes, ...]:
        return tuple(self.text[pos : pos + n] for pos, n in self.prefix_refs)


@dataclass(frozen=True)
class KmerIndex:
    """Queryable artifact: both sides, the tree, and its LCA structure."""

    tree: PhyloTree
    forward: SideIndex
    reverse: SideIndex
    lca: LcaStructure
    sentinel: int


@dataclass(slots=True)
class KmerResult:
    """Answer for one k-mer: 1-based pattern position and vertex number (None = absent)."""

    position: int
    kmer: bytes
    answer: int | None


@dataclass
class QueryStats:
    """Instrumentation for one classify call.

    ``descents`` counts trie descents, one per memo miss.  ``verifications``
    counts comparisons with stored text; each descent makes exactly one,
    which verifies all of its prefix lengths, so it equals ``descents``.
    ``grid_queries`` counts grid range queries.
    """

    descents: int = 0
    verifications: int = 0
    grid_queries: int = 0


def build_side(
    concatenation: Concatenation,
    parse: lz77_mod.Lz77Parse,
    leaf_vertices: Sequence[int],
    is_reverse: bool,
) -> SideIndex:
    """Derive one side's contexts from its text and parse, then its tries and grid.

    The one path for build and load.  ``leaf_vertices[ordinal - 1]`` maps
    this text's genome ordinals to tree vertex numbers.
    """
    text = concatenation.text
    suffixes, prefixes, ctxs = contexts_mod.build_context_sets(concatenation, parse)
    aggregate = "max" if is_reverse else "min"
    points = contexts_mod.grid_points(ctxs, suffixes, prefixes, aggregate, leaf_vertices)
    return SideIndex(
        text=text,
        parse=parse,
        suffix_refs=suffixes.refs,
        prefix_refs=prefixes.refs,
        # Co-lex order of the suffixes is lex order of the reversed text's refs.
        suffix_trie=build_trie(text=text[::-1], refs=suffixes.refs),
        prefix_trie=build_trie(text=text, refs=prefixes.refs),
        grid=ContextGrid(points, aggregate),
        is_reverse=is_reverse,
    )


def assemble_index(
    tree: PhyloTree,
    concatenation: Concatenation,
    forward_parse: lz77_mod.Lz77Parse,
    reverse_parse: lz77_mod.Lz77Parse,
) -> KmerIndex:
    """The index of a concatenation given the parses of its text and of the reversal.

    Shared by ``build_index`` and by index loading.
    """
    return KmerIndex(
        tree=tree,
        forward=build_side(concatenation, forward_parse, tree.leaves, is_reverse=False),
        reverse=build_side(
            reverse_concatenation(concatenation),
            reverse_parse,
            tuple(reversed(tree.leaves)),
            is_reverse=True,
        ),
        lca=build_lca(tree),
        sentinel=concatenation.sentinel,
    )


def build_index(
    tree: PhyloTree,
    genomes: Iterable[GenomeRecord],
    sentinel: bytes | int = b"$",
) -> KmerIndex:
    """Build the full two-sided index for a tree and its leaf genomes."""
    concat = build_concatenation(tree, genomes, sentinel)
    text = concat.text
    return assemble_index(
        tree, concat, lz77_mod.lz77_parse(text), lz77_mod.lz77_parse(text[::-1])
    )


class _QueryState:
    """Per-call memo of verified descents, shared by every k-mer and split.

    Each side reads the pattern in its own text's direction (the reverse
    side reads it reversed), so one split loop serves both.  At cut c of
    that oriented pattern, family ``2 * is_reverse`` descends the side's
    suffix trie with the up-to-k bytes left of c, reversed (the alpha
    parts), and family ``2 * is_reverse + 1`` its prefix trie with the
    up-to-(k - 1) bytes right of c (the beta parts).  ``memo[family][c]``
    holds that descent's ``CompactTrie.descend`` result: the verified
    length, which decides whether a split can occur at all, and the node
    chain, bisected for a rank interval only by splits that reach the grid.
    """

    def __init__(self, index: KmerIndex, pattern: bytes, k: int, stats: QueryStats):
        self.index = index
        self.texts = (pattern, pattern[::-1])
        self.k = k
        self.stats = stats
        self.memo: list[list[tuple[int, list[int], list] | None]] = [
            [None] * (len(pattern) + 1) for _ in range(4)
        ]

    def best(self, side: SideIndex, i: int) -> int | None:
        """Min (forward) or max (reverse) grid label over every split of the
        k-mer at 0-based pattern position ``i``; None if it occurs nowhere."""
        k = self.k
        rev = side.is_reverse
        text = self.texts[rev]
        # the oriented pattern reversed: its bytes left of c, read leftwards
        flipped = self.texts[not rev]
        m = len(text)
        if rev:
            i = m - k - i
        alphas = self.memo[2 * rev]
        betas = self.memo[2 * rev + 1]
        suffix_descend = side.suffix_trie.descend
        prefix_descend = side.prefix_trie.descend
        prefix_size = side.prefix_trie.size
        range_best = side.grid.range_best
        # Labels are leaf vertices, so the leftmost (rightmost) leaf can't be beaten.
        leaves = self.index.tree.leaves
        target = leaves[-1] if rev else leaves[0]
        best = None
        descents = queries = 0
        for j in range(1, k + 1):
            c = i + j
            alpha = alphas[c]
            if alpha is None:
                descents += 1
                alpha = alphas[c] = suffix_descend(flipped[m - c : m - c + k])
            a_len, a_depths, a_nodes = alpha
            if j > a_len:
                continue
            if j == k:
                if not prefix_size:
                    continue
                y1, y2 = 1, prefix_size
            else:
                beta = betas[c]
                if beta is None:
                    descents += 1
                    beta = betas[c] = prefix_descend(text[c : c + k - 1])
                b_len, b_depths, b_nodes = beta
                if k - j > b_len:
                    continue
                node = b_nodes[bisect_left(b_depths, k - j)]
                y1, y2 = node.lo, node.hi
            node = a_nodes[bisect_left(a_depths, j)]
            queries += 1
            label = range_best(node.lo, node.hi, y1, y2)
            if label is not None and (best is None or (label > best if rev else label < best)):
                best = label
                if best == target:
                    break
        stats = self.stats
        stats.descents += descents
        stats.verifications += descents
        stats.grid_queries += queries
        return best


def _check_pattern(index: KmerIndex, pattern: bytes) -> None:
    if bytes([index.sentinel]) in pattern:
        raise ValueError("pattern contains the sentinel byte")


def side_query(index: KmerIndex, side: SideIndex, kmer: bytes) -> int | None:
    """Vertex of the leftmost (forward side) or rightmost (reverse side)
    genome containing ``kmer``, or None if it occurs nowhere."""
    if not kmer:
        raise ValueError("empty k-mer")
    _check_pattern(index, kmer)
    return _QueryState(index, kmer, len(kmer), QueryStats()).best(side, 0)


def classify(index: KmerIndex, pattern: bytes, k: int) -> list[KmerResult]:
    """Classify every k-mer of ``pattern``; k is chosen here, at query time.

    Returns one KmerResult per position (1-based); the answer is the vertex
    number of the smallest subtree containing all genomes with that k-mer,
    or None when the k-mer occurs in no genome.  Empty when k exceeds the
    pattern length.
    """
    results, _ = classify_with_stats(index, pattern, k)
    return results


def classify_with_stats(
    index: KmerIndex, pattern: bytes, k: int
) -> tuple[list[KmerResult], QueryStats]:
    """classify plus instrumentation counters for the call."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    _check_pattern(index, pattern)
    stats = QueryStats()
    results: list[KmerResult] = []
    if k > len(pattern):
        return results, stats
    state = _QueryState(index, pattern, k, stats)
    lca_struct = index.lca
    for i in range(len(pattern) - k + 1):
        kmer = pattern[i : i + k]
        # Both sides answer None exactly when the k-mer occurs nowhere.
        left = state.best(index.forward, i)
        if left is None:
            answer = None
        else:
            answer = lca_struct.query(left, state.best(index.reverse, i))
        results.append(KmerResult(position=i + 1, kmer=kmer, answer=answer))
    return results, stats
