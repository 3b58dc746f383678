"""Two-sided index construction and k-mer classification.

The forward side indexes the genome concatenation, the reverse side its
literal reversal; each side maps a k-mer to the leftmost (respectively
rightmost) genome containing it, via phrase-boundary contexts on a labeled
grid.  The answer for a k-mer is the lowest common ancestor of those two
leaves, the root of the smallest subtree containing every genome where the
k-mer occurs.  k is chosen per query, never at build time.

Per classify call, trie work is shared across k-mers: one descent per
pattern position and trie family (at most 4m descents for a pattern of
length m), memoized for the call.  Each descent is verified once: a single
comparison with stored text decides every prefix length it reached.  Both
sides run one split loop, the reverse side over the reversed pattern; a
side stops at its leftmost (rightmost) leaf, and the reverse side is not
asked about a k-mer the forward side found nowhere.
"""
from __future__ import annotations

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
from .tries import CompactTrie, TextAccess, build_trie


@dataclass(frozen=True)
class SideIndex:
    """One direction of the index: parse, context refs, tries, and labeled grid.

    ``text`` is the (possibly reversed) concatenation.  Context strings live
    only as text refs: ``suffix_refs`` holds (end, length) per suffix-set
    string in co-lex order, ``prefix_refs`` (start, length) per retained
    prefix in lex order; list position + 1 is the string's rank and grid
    coordinate.  ``suffix_trie`` is built over the reversed suffix strings,
    so descending with a reversed k-mer fragment yields the co-lex rank range
    of suffixes ending with that fragment; ``prefix_trie`` covers the
    prefixes.  ``suffix_set`` and ``prefix_set`` read the strings back from
    the refs on each access.
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
    def suffix_set(self) -> contexts_mod.SuffixSet:
        return contexts_mod.SuffixSet.of(self.text[end - n : end] for end, n in self.suffix_refs)

    @property
    def prefix_set(self) -> contexts_mod.PrefixSet:
        return contexts_mod.PrefixSet.of(self.text[pos : pos + n] for pos, n in self.prefix_refs)


@dataclass(frozen=True)
class KmerIndex:
    """Queryable artifact: both sides, the tree, and its LCA structure."""

    tree: PhyloTree
    forward: SideIndex
    reverse: SideIndex
    lca: LcaStructure
    sentinel: int


@dataclass(frozen=True)
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


def reversed_suffix_access(text: bytes, refs: Sequence[tuple[int, int]]) -> TextAccess:
    """Extractor for reversed suffix-set strings stored as (end, length) text refs."""

    def access(string_id: int, start: int, stop: int) -> bytes:
        end, _ = refs[string_id]
        # string s satisfies s[j] == text[end - 1 - j]
        chunk = text[end - stop : end - start]
        return chunk[::-1]

    return access


def prefix_access(text: bytes, refs: Sequence[tuple[int, int]]) -> TextAccess:
    """Extractor for prefix-set strings stored as (start, length) text refs."""

    def access(string_id: int, start: int, stop: int) -> bytes:
        pos, _ = refs[string_id]
        return text[pos + start : pos + stop]

    return access


def assemble_side(
    text: bytes,
    parse: lz77_mod.Lz77Parse,
    suffix_refs: tuple[tuple[int, int], ...],
    prefix_refs: tuple[tuple[int, int], ...],
    points: Iterable[tuple[int, int, int]],
    is_reverse: bool,
) -> SideIndex:
    """Build the tries and the grid of one side from its context refs.

    Shared by ``build_side`` and by index loading.  The refs must be in
    rank order (see SideIndex); ``points`` are (suffix rank, prefix rank,
    label), aggregated with min on the forward side and max on the reverse.
    """
    # Co-lex order of the suffixes is lex order of their reversals.
    reversed_suffixes = [text[end - n : end][::-1] for end, n in suffix_refs]
    prefixes = [text[pos : pos + n] for pos, n in prefix_refs]
    return SideIndex(
        text=text,
        parse=parse,
        suffix_refs=suffix_refs,
        prefix_refs=prefix_refs,
        suffix_trie=build_trie(reversed_suffixes, reversed_suffix_access(text, suffix_refs)),
        prefix_trie=build_trie(prefixes, prefix_access(text, prefix_refs)),
        grid=ContextGrid(points, "max" if is_reverse else "min"),
        is_reverse=is_reverse,
    )


def build_side(
    concatenation: Concatenation, leaf_vertices: Sequence[int], is_reverse: bool
) -> SideIndex:
    """Parse one text orientation, derive its contexts, and assemble the side.

    ``leaf_vertices[ordinal - 1]`` maps this text's genome ordinals to tree
    vertex numbers.
    """
    text = concatenation.text
    parse = lz77_mod.lz77_parse(text)
    suffix_set, prefix_set, ctxs = contexts_mod.build_context_sets(concatenation, parse)
    aggregate = "max" if is_reverse else "min"
    points = contexts_mod.grid_points(ctxs, suffix_set, prefix_set, aggregate, leaf_vertices)
    # Every ranked string occurs at a context's boundary: suffixes end there, prefixes start there.
    suffix_refs = [(0, 0)] * len(suffix_set)
    prefix_refs = [(0, 0)] * len(prefix_set)
    for ctx in ctxs:
        suffix_refs[suffix_set.rank[ctx.suffix] - 1] = (ctx.boundary_pos, len(ctx.suffix))
        prefix_refs[prefix_set.rank[ctx.prefix] - 1] = (ctx.boundary_pos, len(ctx.prefix))
    return assemble_side(text, parse, tuple(suffix_refs), tuple(prefix_refs), points, is_reverse)


def build_index(
    tree: PhyloTree,
    genomes: Iterable[GenomeRecord],
    sentinel: bytes | int = b"$",
) -> KmerIndex:
    """Build the full two-sided index for a tree and its leaf genomes."""
    concat = build_concatenation(tree, genomes, sentinel)
    forward = build_side(concat, tree.leaves, is_reverse=False)
    rev_concat = reverse_concatenation(concat)
    rev_leaf_vertices = tuple(reversed(tree.leaves))
    reverse = build_side(rev_concat, rev_leaf_vertices, is_reverse=True)
    return KmerIndex(
        tree=tree,
        forward=forward,
        reverse=reverse,
        lca=build_lca(tree),
        sentinel=concat.sentinel,
    )


class _QueryState:
    """Per-call memo of verified descents, shared by every k-mer and split.

    Each side reads the pattern in its own text's direction (the reverse
    side reads it reversed), so one split loop serves both.  At cut c of
    that oriented pattern, family ``2 * is_reverse`` descends the side's
    suffix trie with the up-to-k bytes left of c, reversed (the alpha
    parts), and family ``2 * is_reverse + 1`` its prefix trie with the
    up-to-(k - 1) bytes right of c (the beta parts).  ``memo[family][c]``
    holds that descent's ``prefix_intervals`` lists.
    """

    def __init__(self, index: KmerIndex, pattern: bytes, k: int, stats: QueryStats):
        self.index = index
        self.texts = (pattern, pattern[::-1])
        self.k = k
        self.stats = stats
        self.memo: list[list[tuple[list[int], list[int]] | None]] = [
            [None] * (len(pattern) + 1) for _ in range(4)
        ]

    def _descend(self, trie: CompactTrie, fed: bytes) -> tuple[list[int], list[int]]:
        self.stats.descents += 1
        self.stats.verifications += 1
        return trie.prefix_intervals(fed)

    def best(self, side: SideIndex, i: int) -> int | None:
        """Min (forward) or max (reverse) grid label over every split of the
        k-mer at 0-based pattern position ``i``; None if it occurs nowhere."""
        k = self.k
        rev = side.is_reverse
        text = self.texts[rev]
        if rev:
            i = len(text) - k - i
        alphas = self.memo[2 * rev]
        betas = self.memo[2 * rev + 1]
        suffix_trie = side.suffix_trie
        prefix_trie = side.prefix_trie
        range_best = side.grid.range_best
        pick = max if rev else min
        # Labels are leaf vertices, so the leftmost (rightmost) leaf can't be beaten.
        leaves = self.index.tree.leaves
        target = leaves[-1] if rev else leaves[0]
        best = None
        for j in range(1, k + 1):
            c = i + j
            alpha = alphas[c]
            if alpha is None:
                alpha = alphas[c] = self._descend(suffix_trie, text[max(0, c - k) : c][::-1])
            a_lo, a_hi = alpha
            if j >= len(a_lo):
                continue
            if j == k:
                if not prefix_trie.size:
                    continue
                y1, y2 = 1, prefix_trie.size
            else:
                beta = betas[c]
                if beta is None:
                    beta = betas[c] = self._descend(prefix_trie, text[c : c + k - 1])
                b_lo, b_hi = beta
                if k - j >= len(b_lo):
                    continue
                y1, y2 = b_lo[k - j], b_hi[k - j]
            self.stats.grid_queries += 1
            label = range_best(a_lo[j], a_hi[j], y1, y2)
            if label is not None:
                best = label if best is None else pick(best, label)
                if best == target:
                    break
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
