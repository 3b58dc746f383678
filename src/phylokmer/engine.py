"""Two-sided index construction and k-mer classification.

The forward side indexes the genome concatenation, the reverse side its
literal reversal; each side maps a k-mer to the leftmost (respectively
rightmost) genome containing it, via phrase-boundary contexts on a labeled
grid.  The answer for a k-mer is the lowest common ancestor of those two
leaves, the root of the smallest subtree containing every genome where the
k-mer occurs.  k is chosen per query, never at build time.

Per classify call and side, one sweep over the live cuts of the pattern,
read in that side's text direction (the reverse side reads it reversed),
serves every k-mer: at most one descent per cut and trie family, so at
most 4m descents for a pattern of length m.  A cut is live when, for H the
largest power of two with 2H - 1 <= k, capped at ``HEAD_CAP``, the H bytes
left of it end a suffix string or the H bytes right of it start a prefix
string.  At cut c the k-mers still open at positions c - k .. c - 1 split
there; without one the cut is not descended.  The alpha descent (the up to
k bytes left of c, reversed, in the suffix trie) and the beta descent (the
up to k - 1 bytes right of c, in the prefix trie) are each verified once
and keep their verified length and node chain: a k-mer whose alpha or beta
part is longer than that length does not split there, and one that does
bisects the chains for its rank box.  The box's x-range is a suffix-trie
node's: the grid scans the box's points when they are few, and otherwise
answers from the node of their run, built on that run's first query.
A k-mer closes once its label is the side's leftmost (rightmost) leaf, and
the reverse side is not asked about a k-mer the forward side found nowhere.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
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

# Longest head in a head table.  Any head length up to the one k allows
# keeps the live-cut test exact; a cap bounds the tables at six per side.
HEAD_CAP = 32


@dataclass(frozen=True)
class SideIndex:
    """One direction of the index: parse, tries, and labeled grid.

    ``text`` is the (possibly reversed) concatenation.  Context strings live
    only as the tries' (start, length) refs: ``suffix_trie`` holds one per
    suffix-set string in co-lex order, into ``text[::-1]`` where the string
    reads reversed, and ``prefix_trie`` one per retained prefix in lex
    order, into ``text``; list position + 1 is the string's rank and grid
    coordinate.  Descending the suffix trie with a reversed k-mer fragment
    yields the co-lex rank range of suffixes ending with that fragment.
    ``suffix_set`` and ``prefix_set`` read the strings back from the tries
    on each access, for tests and counts only.
    """

    text: bytes
    parse: lz77_mod.Lz77Parse
    suffix_trie: CompactTrie
    prefix_trie: CompactTrie
    grid: ContextGrid
    is_reverse: bool
    heads: dict[int, tuple] = field(default_factory=dict, compare=False, repr=False)

    def head_tables(self, h: int) -> tuple[frozenset[bytes], frozenset[bytes]]:
        """The first ``h`` bytes of each reversed suffix string and each prefix
        string of ``h`` bytes or more, read from the two tries' texts; made
        on first use, kept in ``heads``.  ``h`` is at most ``HEAD_CAP``, so
        the tables stay small for any k."""
        if h not in self.heads:
            self.heads[h] = tuple(
                frozenset(trie.text[p : p + h] for p, n in trie.refs if n >= h)
                for trie in (self.suffix_trie, self.prefix_trie)
            )
        return self.heads[h]

    @property
    def suffix_set(self) -> tuple[bytes, ...]:
        flipped = self.suffix_trie.text
        return tuple(flipped[pos : pos + n][::-1] for pos, n in self.suffix_trie.refs)

    @property
    def prefix_set(self) -> tuple[bytes, ...]:
        return tuple(self.text[pos : pos + n] for pos, n in self.prefix_trie.refs)


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

    ``descents`` counts trie descents: one per live cut that an open k-mer
    reaches, in the suffix trie, plus one in the prefix trie where some
    k-mer splitting there has a beta part.
    ``verifications`` counts comparisons with stored text; each descent
    makes one, which verifies all its prefix lengths, so it equals ``descents``.
    ``grid_queries`` counts grid range queries.
    """

    descents: int = 0
    verifications: int = 0
    grid_queries: int = 0


def build_side(
    concatenation: Concatenation,
    flipped: bytes,
    parse: lz77_mod.Lz77Parse,
    leaf_vertices: Sequence[int],
    is_reverse: bool,
) -> SideIndex:
    """Derive one side's contexts from its text and parse, then its tries and grid.

    The one path for build and load.  ``flipped`` is the text reversed, the
    other side's text, over which the suffixes are ranked and the suffix
    trie is built, so the two sides share two copies.
    ``leaf_vertices[ordinal - 1]`` maps this text's genome ordinals to tree
    vertex numbers.  The grid starts with its points alone, the best of
    each cell; the queries build its nodes.
    """
    text = concatenation.text
    suffixes, prefixes, ctxs = contexts_mod.build_context_sets(concatenation, flipped, parse)
    points = contexts_mod.grid_points(ctxs, suffixes, prefixes, leaf_vertices)
    return SideIndex(
        text=text,
        parse=parse,
        # Co-lex order of the suffixes is lex order of the reversed text's refs.
        suffix_trie=build_trie(text=flipped, refs=suffixes.refs),
        prefix_trie=build_trie(text=text, refs=prefixes.refs),
        grid=ContextGrid(points, "max" if is_reverse else "min"),
        is_reverse=is_reverse,
    )


def assemble_index(
    tree: PhyloTree,
    concatenation: Concatenation,
    reversal: Concatenation,
    forward_parse: lz77_mod.Lz77Parse,
    reverse_parse: lz77_mod.Lz77Parse,
) -> KmerIndex:
    """The index of a concatenation and its reversal, given the parses of
    their texts.

    Shared by ``build_index`` and by index loading.  The index keeps the two
    texts and no other copy of them.
    """
    return KmerIndex(
        tree=tree,
        forward=build_side(concatenation, reversal.text, forward_parse, tree.leaves, False),
        reverse=build_side(
            reversal, concatenation.text, reverse_parse, tuple(reversed(tree.leaves)), True
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
    reversal = reverse_concatenation(concat)
    return assemble_index(
        tree,
        concat,
        reversal,
        lz77_mod.lz77_parse(concat.text),
        lz77_mod.lz77_parse(reversal.text),
    )


def _sweep(
    index: KmerIndex, side: SideIndex, pattern: bytes, k: int, open_: list[int], stats: QueryStats
) -> list[int | None]:
    """Min (forward) or max (reverse) grid label over every split of the
    k-mers at the ascending positions ``open_`` of the oriented pattern (the
    reverse side reads ``pattern`` reversed), indexed by oriented position;
    None where a k-mer occurs nowhere, or was not asked about.

    One pass over the live cuts c, ascending: the open k-mers i with
    c - k <= i < c split at c, so each k-mer sees its cuts in the order of
    a loop of its own.  A cut no open k-mer reaches is not descended.  A
    k-mer whose label reaches the side's leftmost (rightmost) leaf, which no
    label can beat, is closed.  ``open_`` is consumed.
    """
    rev = side.is_reverse
    text, flipped = (pattern[::-1], pattern) if rev else (pattern, pattern[::-1])
    m = len(text)
    best: list[int | None] = [None] * (m - k + 1)
    if not open_:
        return best
    h = min(1 << ((k + 1).bit_length() - 2), HEAD_CAP)
    alpha_heads, beta_heads = side.head_tables(h)
    live = [
        c
        for c in range(open_[0] + 1, open_[-1] + k + 1)
        if flipped[m - c : m - c + h] in alpha_heads or text[c : c + h] in beta_heads
    ]
    suffix_descend = side.suffix_trie.descend
    prefix_descend = side.prefix_trie.descend
    # j == k leaves no beta part: its y-range is the whole prefix trie, the root's.
    whole = (0 if side.prefix_trie.size else -1), [0], [side.prefix_trie.root]
    range_best = side.grid.range_best
    leaves = index.tree.leaves
    target = leaves[-1] if rev else leaves[0]
    descents = queries = 0
    for c in live:
        lo = bisect_left(open_, c - k)
        hi = bisect_left(open_, c, lo)
        if lo == hi:
            continue
        descents += 1
        a_len, a_depths, a_nodes = suffix_descend(flipped[m - c : m - c + k])
        # an alpha part of j = c - i bytes needs j <= a_len
        lo = bisect_left(open_, c - a_len, lo, hi)
        if lo == hi:
            continue
        if open_[hi - 1] > c - k:
            descents += 1
            b_len, b_depths, b_nodes = prefix_descend(text[c : c + k - 1])
        else:
            b_len, b_depths, b_nodes = whole
        # a beta part of k - j bytes needs k - j <= b_len
        hi = bisect_right(open_, c - k + b_len, lo, hi)
        closed = False
        for i in open_[lo:hi]:
            j = c - i
            a = a_nodes[bisect_left(a_depths, j)]
            b = b_nodes[bisect_left(b_depths, k - j)]
            queries += 1
            label = range_best(a.lo, a.hi, b.lo, b.hi)
            if label is not None:
                old = best[i]
                if old is None or (label > old if rev else label < old):
                    best[i] = label
                    closed = closed or label == target
        if closed:
            open_[lo:hi] = [i for i in open_[lo:hi] if best[i] != target]
            if not open_:
                break
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
    return _sweep(index, side, kmer, len(kmer), [0], QueryStats())[0]


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
    n = len(pattern) - k + 1
    left = _sweep(index, index.forward, pattern, k, list(range(n)), stats)
    # Both sides answer None exactly when the k-mer occurs nowhere, so the
    # reverse side is asked only about the k-mers the forward side found.
    found = [n - 1 - i for i in range(n - 1, -1, -1) if left[i] is not None]
    right = _sweep(index, index.reverse, pattern, k, found, stats)
    query = index.lca.query
    for i in range(n):
        answer = None if left[i] is None else query(left[i], right[n - 1 - i])
        results.append(KmerResult(position=i + 1, kmer=pattern[i : i + k], answer=answer))
    return results, stats
