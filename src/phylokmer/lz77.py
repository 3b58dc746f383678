"""Greedy self-referential LZ77 factorization.

Each phrase is the longest prefix of the remaining text that occurs starting
at an earlier position (the source may overlap the phrase itself), followed
by one literal byte; the final phrase omits the literal when the match
consumes the rest of the text.  Sentinels are ordinary bytes here.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Phrase:
    """One phrase: ``match_len`` bytes copied from ``source``, then ``literal``.

    ``source`` is None iff ``match_len`` is 0; ``literal`` is None only for a
    final phrase whose match reaches the end of the text.
    """

    start: int
    match_len: int
    source: int | None
    literal: int | None

    @property
    def length(self) -> int:
        return self.match_len + (0 if self.literal is None else 1)


@dataclass(frozen=True)
class Lz77Parse:
    phrases: tuple[Phrase, ...]
    boundary_positions: tuple[int, ...]

    @property
    def z(self) -> int:
        return len(self.phrases)


def _longest_previous_match(text: bytes, i: int) -> int:
    """Length of the longest prefix of text[i:] occurring at some position < i.

    Valid lengths are downward closed, so binary search over ``bytes.find``
    with the search window capped at i + L - 1 (forcing the occurrence to
    start before i) finds the maximum.
    """
    lo, hi = 0, len(text) - i
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if text.find(text[i : i + mid], 0, i + mid - 1) >= 0:
            lo = mid
        else:
            hi = mid - 1
    return lo


def lz77_parse(text: bytes) -> Lz77Parse:
    """Factor ``text`` greedily left to right.  Errors on empty input."""
    if not text:
        raise ValueError("cannot factor empty text")
    n = len(text)
    phrases: list[Phrase] = []
    boundaries: list[int] = []
    i = 0
    while i < n:
        boundaries.append(i)
        match_len = _longest_previous_match(text, i)
        if match_len == 0:
            phrases.append(Phrase(start=i, match_len=0, source=None, literal=text[i]))
            i += 1
        else:
            source = text.find(text[i : i + match_len], 0, i + match_len - 1)
            if i + match_len == n:
                phrases.append(Phrase(start=i, match_len=match_len, source=source, literal=None))
            else:
                phrases.append(
                    Phrase(start=i, match_len=match_len, source=source, literal=text[i + match_len])
                )
            i += match_len + (0 if i + match_len == n else 1)
    boundaries.append(n)
    return Lz77Parse(phrases=tuple(phrases), boundary_positions=tuple(boundaries))


def reconstruct(parse: Lz77Parse) -> bytes:
    """Decode the parse back into the original text.

    Copies byte by byte so self-overlapping sources reconstruct correctly.
    """
    out = bytearray()
    for phrase in parse.phrases:
        if phrase.match_len:
            src = phrase.source
            if src is None or src >= phrase.start:
                raise ValueError("corrupt phrase: bad source")
            for k in range(phrase.match_len):
                out.append(out[src + k])
        if phrase.literal is not None:
            out.append(phrase.literal)
    return bytes(out)
