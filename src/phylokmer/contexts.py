"""Phrase-boundary contexts: maximal sentinel-free suffixes and prefixes.

A boundary context pairs the maximal sentinel-free suffix of the phrase
ending at a boundary with the maximal sentinel-free prefix starting there,
as positions into the text: a prefix runs to the end of its genome, so
copies would cost the phrase count times the genome length.  Suffixes are
ranked co-lexicographically, prefixes lexicographically, by sorting
positions on bounded slices; the ranks are the grid coordinates downstream.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .lz77 import Lz77Parse
from .model import Concatenation


class BoundaryContext(NamedTuple):
    """Context at one phrase boundary: suffix ``text[suffix_start:boundary_pos]``,
    prefix ``text[boundary_pos:prefix_end]``.  ``genome`` is the 1-based
    ordinal of the genome holding ``boundary_pos - 1``; emitted contexts
    have a non-empty suffix, so that byte is never a sentinel."""

    boundary_pos: int
    suffix_start: int
    prefix_end: int
    genome: int
    text: bytes

    @property
    def suffix(self) -> bytes:
        return self.text[self.suffix_start : self.boundary_pos]

    @property
    def prefix(self) -> bytes:
        return self.text[self.boundary_pos : self.prefix_end]


class Ranking(NamedTuple):
    """``refs[r - 1]``: (start, length) of the rank-r string at its last
    occurrence; ``ranks[i]``: 1-based rank of context i's string."""

    refs: tuple[tuple[int, int], ...]
    ranks: list[int]


def rank_slices(text: bytes, starts: Sequence[int], stops: Sequence[int]) -> Ranking:
    """Lex-rank the strings ``text[starts[i]:stops[i]]``, equal ones alike: sort by
    the first 64 bytes, then re-sort each group of equal full-width keys by the
    next bytes, doubling the width each round.  Equal keys shorter than the width
    end their strings, so each string is sliced about twice as far as it ties."""
    ranks = [0] * len(starts)
    refs: list[tuple[int, int]] = []

    def sort(ids: Sequence[int], offset: int, width: int) -> None:
        stop = offset + width
        keys = [text[starts[i] + offset : min(starts[i] + stop, stops[i])] for i in ids]
        # stable, so the last of a run of equal keys is its last occurrence
        order = sorted(range(len(ids)), key=keys.__getitem__)
        lo = 0
        while lo < len(order):
            key = keys[order[lo]]
            hi = lo + 1
            while hi < len(order) and keys[order[hi]] == key:
                hi += 1
            if hi - lo > 1 and len(key) == width:
                sort([ids[j] for j in order[lo:hi]], stop, 2 * width)
            else:  # one string
                i = ids[order[hi - 1]]
                refs.append((starts[i], stops[i] - starts[i]))
                for j in order[lo:hi]:
                    ranks[ids[j]] = len(refs)
            lo = hi

    sort(range(len(starts)), 0, 64)
    return Ranking(tuple(refs), ranks)


def build_context_sets(
    concatenation: Concatenation, parse: Lz77Parse
) -> tuple[Ranking, Ranking, list[BoundaryContext]]:
    """Rank the suffixes and the retained prefixes, and list all boundary contexts.

    One BoundaryContext is emitted per boundary whose preceding phrase has a
    non-empty maximal suffix; boundary 0 has no preceding phrase.  A
    candidate prefix is retained iff some emitted context holds it.  One
    pass over consecutive boundaries: the genome holding the byte before a
    boundary bounds both strings, the suffix by the genome's start and the
    prefix by its end, and boundaries only grow, so its ordinal is found by
    walking ``genome_spans`` forward.  Suffix refs point into the reversed
    text, where each suffix reads left to right from ``len(text) - end``.
    """
    text = concatenation.text
    sentinel = concatenation.sentinel
    spans = concatenation.genome_spans
    bounds = parse.boundary_positions
    contexts: list[BoundaryContext] = []
    g = 0
    for start, end in zip(bounds, bounds[1:]):
        if text[end - 1] == sentinel:
            continue
        while spans[g][1] < end:
            g += 1
        g_start, g_end = spans[g]
        contexts.append(BoundaryContext(end, max(start, g_start), g_end, g + 1, text))
    ends = [c.boundary_pos for c in contexts]
    n = len(text)
    suffixes = rank_slices(text[::-1], [n - e for e in ends], [n - c.suffix_start for c in contexts])
    return suffixes, rank_slices(text, ends, [c.prefix_end for c in contexts]), contexts


def grid_points(
    contexts: Sequence[BoundaryContext],
    suffixes: Ranking,
    prefixes: Ranking,
    aggregate: str,
    leaf_vertices: Sequence[int],
) -> list[tuple[int, int, int]]:
    """Labeled points (x, y, label): one per distinct (suffix, prefix) pair.

    x is the suffix co-lex rank, y the prefix lex rank.  The label is the
    min or max (per ``aggregate``) vertex number over the genomes of all
    contexts sharing the pair; ``leaf_vertices[ordinal - 1]`` maps genome
    ordinals to vertex numbers.
    """
    if aggregate not in ("min", "max"):
        raise ValueError(f"aggregate must be 'min' or 'max', got {aggregate!r}")
    pick = min if aggregate == "min" else max
    best: dict[tuple[int, int], int] = {}
    for ctx, x, y in zip(contexts, suffixes.ranks, prefixes.ranks):
        vertex = leaf_vertices[ctx.genome - 1]
        key = (x, y)
        best[key] = pick(best[key], vertex) if key in best else vertex
    return [(x, y, label) for (x, y), label in sorted(best.items())]
