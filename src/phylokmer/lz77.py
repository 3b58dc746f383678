"""Greedy self-referential LZ77 factorization.

Each phrase is the longest prefix of the remaining text that occurs starting
at an earlier position (the source may overlap the phrase itself), followed
by one literal byte; the final phrase omits the literal when the match
consumes the rest of the text.  Sentinels are ordinary bytes here.

The parser grows each match by extend and retry: ``bytes.find`` looks for
the match plus one byte among the positions before the phrase, and each hit
is extended by direct comparison, so only a phrase's last find can miss and
every other one scans only up to its hit.  The source is the leftmost
occurrence of the longest match.  One full-window miss per phrase makes the
worst case O(n·z) byte comparisons for n bytes and z phrases.
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


def _extend(text: bytes, source: int, i: int, length: int) -> int:
    """Grow a match of ``length`` bytes between ``source`` and ``i`` to its end.

    Compares 64-byte slices while they agree, then takes the LCP of the
    last (shorter) pair from the XOR of their big-endian integers.  Slices
    of ``text`` itself make self-overlapping sources (source + length > i)
    compare correctly.
    """
    n = len(text)
    a, b = source + length, i + length
    while b + 64 <= n and text[a : a + 64] == text[b : b + 64]:
        a += 64
        b += 64
    tail = min(64, n - b)
    diff = int.from_bytes(text[a : a + tail], "big") ^ int.from_bytes(text[b : b + tail], "big")
    if diff:
        # the highest differing bit sits in the first mismatching byte
        tail -= 1 + (diff.bit_length() - 1) // 8
    return b + tail - i


def lz77_parse(text: bytes) -> Lz77Parse:
    """Factor ``text`` greedily left to right.  Errors on empty input.

    Per phrase at ``i`` the match grows by extend and retry: find the match
    plus one more byte, ``text[i : i + L + 1]``, in ``text[start : i + L]``
    (the window end keeps every occurrence starting before ``i``); on a hit
    at ``j`` extend that occurrence by direct comparison and retry from
    ``start = j + 1``.  The first miss, or the end of the text, ends the
    match.  Every occurrence of the longer string is one of the shorter, so
    nothing before ``j`` can hold it: the final source is the leftmost
    occurrence of the longest match.  Hits scan the window only up to
    themselves, so each phrase scans its whole window once, at the miss.
    """
    if not text:
        raise ValueError("cannot factor empty text")
    n = len(text)
    find = text.find
    phrases: list[Phrase] = []
    boundaries: list[int] = []
    i = 0
    while i < n:
        boundaries.append(i)
        match_len, source, start = 0, None, 0
        while i + match_len < n:
            j = find(text[i : i + match_len + 1], start, i + match_len)
            if j < 0:
                break
            source, start = j, j + 1
            match_len = _extend(text, j, i, match_len + 1)
        end = i + match_len
        literal = text[end] if end < n else None
        phrases.append(Phrase(start=i, match_len=match_len, source=source, literal=literal))
        i = end + (end < n)
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
