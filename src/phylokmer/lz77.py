"""Greedy self-referential LZ77 factorization.

Each phrase is the longest prefix of the remaining text that occurs starting
at an earlier position (the source may overlap the phrase itself), followed
by one literal byte; the final phrase omits the literal when the match
consumes the rest of the text.  Sentinels are ordinary bytes here.  The
source is the leftmost occurrence of the longest match.

Long matches come from a sampled gram index, built once per call and
dropped with it: the ``GRAM``-grams at positions divisible by ``STEP``, each
with its ascending positions.  A match of ``EXACT = GRAM + STEP - 1`` bytes
or more holds a whole sampled gram within its first ``EXACT`` bytes, so the
grams at the phrase's first ``STEP`` offsets propose every source of such a
match, and a best proposal of ``EXACT`` bytes or more is exact, source
included.  A shorter best, a phrase that starts fewer than ``EXACT`` bytes
from the end, or an offset proposing more than ``CAP`` sources (unary and
periodic texts) falls back to extend and retry: ``bytes.find`` looks for the
match plus one byte among the positions before the phrase, and each hit is
extended by direct comparison, so only the last find misses, and it scans
the whole window.

Cost: the index takes O(n) time and n / ``STEP`` entries for n bytes; a
phrase has at most ``STEP * CAP`` proposed sources, each compared with the
best match so far and, if it holds one more byte, extended by
``common_prefix``, both linear in the phrase's match length.  A phrase the
fallback decides still costs one full-window miss, so the worst case stays
O(n·z) byte comparisons for z phrases, as for extend and retry alone.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

GRAM = 12  # length of the sampled grams that propose sources
STEP = 4  # a gram is sampled at every STEP-th position
EXACT = GRAM + STEP - 1  # a match this long always holds a sampled gram
CAP = 32  # more proposed sources than this for one offset: fall back


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

    Candidate step: the ``GRAM``-grams at positions divisible by ``STEP`` are
    listed once, each with its ascending positions.  At a phrase start ``i``
    with at least ``EXACT`` bytes left, every listed position ``p`` of
    ``text[i + d : i + d + GRAM]``, for ``d < STEP``, proposes the source
    ``j = p - d`` when ``0 <= j < i``.  A source that holds the best so far
    plus one byte is extended by ``common_prefix`` and becomes the best; one
    that holds just the best replaces its source if it lies further left.
    A match of ``EXACT`` bytes or more from any ``j < i`` holds the sampled
    gram at the first multiple of ``STEP`` at or after ``j``, so it is
    proposed: a best of ``EXACT`` or more is the longest match and its
    source the leftmost.

    Fallback, when the best is shorter, fewer than ``EXACT`` bytes are left,
    or some ``d`` proposes more than ``CAP`` sources: extend and retry.  Find
    the match plus one more byte, ``text[i : i + L + 1]``, in
    ``text[start : i + L]`` (the window end keeps every occurrence starting
    before ``i``); on a hit at ``j`` extend that occurrence by direct
    comparison and retry from ``start = j + 1``.  The first miss, or the end
    of the text, ends the match.  Every occurrence of the longer string is
    one of the shorter, so nothing before ``j`` can hold it: the final source
    is the leftmost occurrence of the longest match.  Hits scan the window
    only up to themselves, so each phrase scans its whole window once, at
    the miss.
    """
    if not text:
        raise ValueError("cannot factor empty text")
    n = len(text)
    find = text.find
    grams: dict[bytes, list[int]] = {}
    for p in range(0, n - GRAM + 1, STEP):
        gram = text[p : p + GRAM]
        if gram in grams:
            grams[gram].append(p)
        else:
            grams[gram] = [p]
    phrases: list[Phrase] = []
    boundaries: list[int] = []
    i = 0
    while i < n:
        boundaries.append(i)
        match_len, source = 0, n
        if n - i >= EXACT:
            # A source beats the best only if it holds the best plus one
            # byte; it ties if it holds the best, and then the leftmost wins.
            same, longer = b"", text[i : i + 1]
            for d in range(STEP):
                listed = grams.get(text[i + d : i + d + GRAM])
                if listed is None:
                    continue
                count = bisect_left(listed, i + d)
                if count > CAP:
                    match_len = 0
                    break
                for p in listed[:count]:
                    j = p - d
                    if j < 0:
                        continue
                    if text[j : j + match_len + 1] == longer:
                        match_len += 1
                        match_len += common_prefix(
                            text, j + match_len, i + match_len, n - i - match_len
                        )
                        source = j
                        same, longer = text[i : i + match_len], text[i : i + match_len + 1]
                    elif j < source and text[j : j + match_len] == same:
                        source = j
        if match_len < EXACT:
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
