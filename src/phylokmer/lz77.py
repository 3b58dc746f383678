"""Greedy self-referential LZ77 factorization.

Each phrase is the longest prefix of the remaining text that occurs starting
at an earlier position (the source may overlap the phrase itself), followed
by one literal byte; the final phrase omits the literal when the match
consumes the rest of the text.  Sentinels are ordinary bytes here.  The
source is the leftmost occurrence of the longest match.  The parse is kept
as columns, not one object per phrase: match lengths, sources and the
literal bytes, as the index file stores them.  Phrase starts are derived
from them, as running sums of the phrase lengths.

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
the window from where it starts.

Short matches come from a second index, also local to the call: the
``q``-grams at every position below a frontier ``F``, each with its
ascending positions.  A fallback phrase whose ``q``-gram is listed takes
the longest, leftmost match among the listed sources, and extend and retry
goes on from that match with its finds starting at ``F``, not at 0.  That
is exact: every source below ``F`` of a match of ``q`` bytes or more holds
the gram, so it is listed, and the finds see every source from ``F`` on.
A gram not listed, or listed more often than the lookup is worth, takes
the finds from 0, so matches shorter than ``q`` are found as before.

The frontier moves by ski rental.  The finds' bytes scanned past ``F`` are
counted for the phrases that a longer index would serve: those whose match
holds ``q`` bytes or more (``SHORT`` before ``q`` is picked) and whose
lookup was worth it.  Once the count exceeds ``RENT`` times the positions
from ``F`` to the phrase start ``i``, those positions are listed and
``F = i``.  ``RENT`` is about what listing a position, or comparing a
listed source, costs in bytes of a ``bytes.find`` scan.  So a text with few
short phrases of ``q`` bytes or more (mostly long matches, unary and
periodic texts, random bytes) never pays for the index, and any other pays
about what its scans have cost at most.  ``q`` is picked once, when the
frontier first moves, as ``round(log_sigma(n)) - 3`` but at least
``SHORT``, with ``sigma`` the distinct bytes seen so far.  On random text
most short matches then hold ``q`` bytes or more, while a gram is listed
about ``F / sigma ** q`` times.

Cost: the sampled index takes O(n) time and n / ``STEP`` entries for n
bytes; a phrase has at most ``STEP * CAP`` proposed sources, each compared
with the best match so far and, if it holds one more byte, extended by
``common_prefix``, both linear in the phrase's match length.  The short-gram
index holds at most one entry per position below ``F``, and costs at most
about what the scans charged to it cost.  A phrase served by it scans only
``text[F : i + L]`` and compares fewer than ``F / RENT`` listed sources; any
other fallback phrase still scans its whole window, so the worst case stays
O(n·z) byte comparisons for z phrases, as for extend and retry alone.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import log

GRAM = 12  # length of the sampled grams that propose sources
STEP = 4  # a gram is sampled at every STEP-th position
EXACT = GRAM + STEP - 1  # a match this long always holds a sampled gram
CAP = 32  # more proposed sources than this for one offset: fall back
SHORT = 4  # shortest short gram
RENT = 128  # bytes of find scan that listing or comparing one position costs


@dataclass(frozen=True)
class Lz77Parse:
    """The parse as columns, one entry per phrase: phrase p copies
    ``match_lens[p]`` bytes from ``sources[p]`` (-1, no source, iff the
    match length is 0), then ``literals[p]``.  ``literals`` is one byte
    short when the final phrase's match reaches the end of the text.
    """

    match_lens: tuple[int, ...]
    sources: tuple[int, ...]
    literals: bytes

    @property
    def z(self) -> int:
        return len(self.match_lens)

    @property
    def boundary_positions(self) -> tuple[int, ...]:
        """The phrase starts, then the text length: running sums of each
        phrase's match length and literal, if it has one."""
        starts = accumulate((length + 1 for length in self.match_lens[:-1]), initial=0)
        return (*starts, sum(self.match_lens) + len(self.literals))


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

    Short-gram step, for a fallback phrase once positions below the frontier
    ``F`` are listed by their ``q``-grams: if ``text[i : i + q]`` is listed
    fewer than ``F / RENT`` times, every listed source is compared by the
    same "best plus one byte" rule, leftmost first, and extend and retry
    starts from the best with ``start = F``.  Otherwise it starts from
    nothing at ``start = 0``.  See the module docstring for the frontier
    rule and the choice of ``q``.
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
    short: dict[bytes, list[int]] = {}  # q-gram -> its positions below frontier
    q = frontier = rent = 0
    match_lens: list[int] = []
    sources: list[int] = []
    literals = bytearray()
    i = 0
    while i < n:
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
            if rent > RENT * (i - frontier):
                if not q:
                    # Every byte value's first occurrence is a literal.
                    q = max(SHORT, round(log(n, max(2, len(set(literals))))) - 3)
                for p in range(frontier, min(i, n - q + 1)):
                    gram = text[p : p + q]
                    if gram in short:
                        short[gram].append(p)
                    else:
                        short[gram] = [p]
                frontier, rent = i, 0
            match_len, source, start = 0, -1, 0
            listed = short.get(text[i : i + q]) if frontier else None
            worth = listed is None or len(listed) * RENT < frontier
            if listed is not None and worth:
                # Every listed source holds the q-gram; ascending order and
                # the "best plus one byte" rule keep the leftmost of ties.
                match_len, longer, start = q - 1, text[i : i + q], frontier
                for j in listed:
                    if text[j : j + match_len + 1] == longer:
                        match_len += 1
                        match_len += common_prefix(
                            text, j + match_len, i + match_len, n - i - match_len
                        )
                        source = j
                        longer = text[i : i + match_len + 1]
            while i + match_len < n:
                j = find(text[i : i + match_len + 1], start, i + match_len)
                if j < 0:
                    break
                source, start = j, j + 1
                match_len += 1
                match_len += common_prefix(text, j + match_len, i + match_len, n - i - match_len)
            if match_len >= (q or SHORT) and worth:
                rent += i + match_len - frontier
        match_lens.append(match_len)
        sources.append(source)
        end = i + match_len
        if end < n:
            literals.append(text[end])
        i = end + (end < n)
    return Lz77Parse(tuple(match_lens), tuple(sources), bytes(literals))
