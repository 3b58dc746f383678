"""Phrase-boundary contexts: maximal sentinel-free suffixes and prefixes.

A boundary context pairs the maximal sentinel-free suffix of the phrase
ending at a boundary with the maximal sentinel-free prefix starting there.
Suffixes are ranked co-lexicographically, prefixes lexicographically; those
ranks are the grid coordinates downstream.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .lz77 import Lz77Parse
from .model import Concatenation, genome_of_position


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


@dataclass(frozen=True)
class BoundaryContext:
    """Context at one phrase boundary.

    ``genome`` is the 1-based ordinal of the genome containing position
    ``boundary_pos - 1``; emitted contexts always have a non-empty suffix, so
    that byte is never a sentinel.
    """

    boundary_pos: int
    suffix: bytes
    prefix: bytes
    genome: int


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


def build_context_sets(
    concatenation: Concatenation, parse: Lz77Parse
) -> tuple[SuffixSet, PrefixSet, list[BoundaryContext]]:
    """Derive the suffix set, the retained prefix set, and all boundary contexts.

    A candidate prefix is retained iff it occurs at some boundary whose
    preceding phrase has a non-empty maximal suffix; boundary 0 has no
    preceding phrase.  One BoundaryContext is emitted per boundary with a
    non-empty preceding suffix.
    """
    text = concatenation.text
    sentinel = concatenation.sentinel

    suffix_at: dict[int, bytes] = {}
    for phrase in parse.phrases:
        end = phrase.start + phrase.length
        suffix_at[end] = max_suffix_of_phrase(
            text[phrase.start : end], sentinel
        )

    suffixes = SuffixSet.of(sorted({s for s in suffix_at.values() if s}, key=lambda s: s[::-1]))

    retained: set[bytes] = set()
    contexts: list[BoundaryContext] = []
    for boundary in parse.boundary_positions:
        suffix = suffix_at.get(boundary, b"")
        if not suffix:
            continue
        prefix = max_prefix_at(text, boundary, sentinel)
        retained.add(prefix)
        genome = genome_of_position(concatenation, boundary - 1)
        if genome is None:
            raise ValueError(f"non-empty suffix at boundary {boundary} next to a sentinel")
        contexts.append(
            BoundaryContext(boundary_pos=boundary, suffix=suffix, prefix=prefix, genome=genome)
        )

    return suffixes, PrefixSet.of(sorted(retained)), contexts


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
