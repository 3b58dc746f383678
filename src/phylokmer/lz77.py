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


def common_prefix(text: bytes, a: int, b: int, limit: int) -> int:
    """Length of the common prefix of ``text[a : a + limit]`` and ``text[b : b + limit]``.

    Compares slices of 64 bytes, doubling in width, while they agree; in the
    first pair that differs, the top set bit of the XOR of their big-endian
    integers sits in the first differing byte.  Ranges may overlap.
    """
    done = 0
    step = 64
    while done < limit:
        if step > limit - done:
            step = limit - done
        x = text[a + done : a + done + step]
        y = text[b + done : b + done + step]
        if x != y:
            diff = int.from_bytes(x, "big") ^ int.from_bytes(y, "big")
            return done + step - 1 - (diff.bit_length() - 1) // 8
        done += step
        step += step
    return done


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
            match_len += 1
            match_len += common_prefix(text, j + match_len, i + match_len, n - i - match_len)
        end = i + match_len
        literal = text[end] if end < n else None
        phrases.append(Phrase(start=i, match_len=match_len, source=source, literal=literal))
        i = end + (end < n)
    boundaries.append(n)
    return Lz77Parse(phrases=tuple(phrases), boundary_positions=tuple(boundaries))

