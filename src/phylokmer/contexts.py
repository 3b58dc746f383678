"""Phrase-boundary contexts: maximal sentinel-free suffixes and prefixes.

A boundary context pairs the maximal sentinel-free suffix of the phrase
ending at a boundary with the maximal sentinel-free prefix starting there.
Suffixes are ranked co-lexicographically, prefixes lexicographically; those
ranks are the grid coordinates downstream.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .lz77 import Lz77Parse
from .model import Concatenation


@dataclass(frozen=True)
class _RankedStrings:
    strings: tuple[bytes, ...]
    rank: dict[bytes, int] = field(compare=False)

    @classmethod
    def of(cls, strings: Iterable[bytes]):
        """The set of already sorted, distinct ``strings``, ranked 1-based."""
        strings = tuple(strings)
        return cls(strings=strings, rank={s: i + 1 for i, s in enumerate(strings)})

    def __len__(self) -> int:
        return len(self.strings)


class SuffixSet(_RankedStrings):
    """Distinct non-empty maximal phrase suffixes, co-lex sorted, ranks 1-based."""


class PrefixSet(_RankedStrings):
    """Retained maximal boundary prefixes (empty string included), lex sorted."""


class BoundaryContext(NamedTuple):
    """Context at one phrase boundary.

    ``genome`` is the 1-based ordinal of the genome containing position
    ``boundary_pos - 1``; emitted contexts always have a non-empty suffix, so
    that byte is never a sentinel.
    """

    boundary_pos: int
    suffix: bytes
    prefix: bytes
    genome: int


def build_context_sets(
    concatenation: Concatenation, parse: Lz77Parse
) -> tuple[SuffixSet, PrefixSet, list[BoundaryContext]]:
    """Derive the suffix set, the retained prefix set, and all boundary contexts.

    One BoundaryContext is emitted per boundary whose preceding phrase has a
    non-empty maximal suffix; boundary 0 has no preceding phrase.  A
    candidate prefix is retained iff some emitted context holds it.  One
    pass over consecutive boundaries: the genome holding the byte before a
    boundary bounds both strings, the suffix by the genome's start and the
    prefix by its end, and boundaries only grow, so its ordinal is found by
    walking ``genome_spans`` forward.
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
        contexts.append(
            BoundaryContext(end, text[max(start, g_start) : end], text[end:g_end], g + 1)
        )
    suffixes = SuffixSet.of(sorted({c.suffix for c in contexts}, key=lambda s: s[::-1]))
    return suffixes, PrefixSet.of(sorted({c.prefix for c in contexts})), contexts


def grid_points(
    contexts: Sequence[BoundaryContext],
    suffixes: SuffixSet,
    prefixes: PrefixSet,
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
    for ctx in contexts:
        key = (suffixes.rank[ctx.suffix], prefixes.rank[ctx.prefix])
        vertex = leaf_vertices[ctx.genome - 1]
        if key in best:
            best[key] = pick(best[key], vertex)
        else:
            best[key] = vertex
    return [(x, y, label) for (x, y), label in sorted(best.items())]
