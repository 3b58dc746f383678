"""Compact tries with blind descent and one verification per descent.

Built over a sorted set of byte strings.  Descent compares only the first
byte of each edge and skips the rest, so a reported locus is a candidate
until verified against stored text; ``prefix_intervals`` verifies every
prefix length of one descent with a single comparison.  A set string that
is a proper prefix of another ends at a terminal mark on the node at its
depth; terminals sort before outgoing edges, so leaf ranks in left-to-right
order equal the 1-based sorted-set ranks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

TextAccess = Callable[[int, int, int], bytes]


class _Edge:
    __slots__ = ("first", "length", "ref_string", "ref_start", "child")

    def __init__(self, first: int, length: int, ref_string: int, ref_start: int, child: "_Node"):
        self.first = first
        self.length = length
        # (ref_string, ref_start) locate this edge's label inside set string
        # ref_string, for label extraction without storing the bytes here.
        self.ref_string = ref_string
        self.ref_start = ref_start
        self.child = child


class _Node:
    __slots__ = ("edges", "terminal_rank", "lo", "hi", "depth")

    def __init__(self, lo: int, hi: int, depth: int):
        self.edges: list[_Edge] = []
        self.terminal_rank: int | None = None
        self.lo = lo
        self.hi = hi
        self.depth = depth


@dataclass(frozen=True)
class Locus:
    """A descent endpoint: the subtree covering all set strings with the
    descended pattern as a prefix, as a closed 1-based rank interval."""

    matched_depth: int
    lo: int
    hi: int
    candidate: bool

    @property
    def rank_interval(self) -> tuple[int, int]:
        return (self.lo, self.hi)


class CompactTrie:
    """Compact trie over a lex-sorted, deduplicated set of byte strings."""

    def __init__(self, strings: Sequence[bytes], text_access: TextAccess | None = None):
        strings = list(strings)
        for a, b in zip(strings, strings[1:]):
            if a >= b:
                raise ValueError("strings must be sorted and deduplicated")
        if text_access is None:
            kept = tuple(strings)

            def text_access(string_id: int, start: int, stop: int) -> bytes:
                return kept[string_id][start:stop]

        self._access = text_access
        self.size = len(strings)
        self.root = self._build(strings)
        self._root_locus = (
            Locus(matched_depth=0, lo=1, hi=self.size, candidate=False) if self.size else None
        )

    @staticmethod
    def _build(strings: list[bytes]) -> _Node:
        root = _Node(lo=1, hi=len(strings), depth=0)
        if not strings:
            return root
        work = [(root, 0, len(strings))]
        while work:
            node, i, j = work.pop()
            depth = node.depth
            k = i
            if len(strings[k]) == depth:
                node.terminal_rank = k + 1
                k += 1
            while k < j:
                first = strings[k][depth]
                g = k + 1
                while g < j and strings[g][depth] == first:
                    g += 1
                # Edge label: common prefix of the group, cut where its first
                # (shortest possible) member ends.
                if g - k == 1:
                    ext = len(strings[k]) - depth
                else:
                    a, b = strings[k], strings[g - 1]
                    limit = min(len(a), len(b))
                    pos = depth
                    while pos < limit and a[pos] == b[pos]:
                        pos += 1
                    ext = pos - depth
                child = _Node(lo=k + 1, hi=g, depth=depth + ext)
                node.edges.append(_Edge(first, ext, k, depth, child))
                work.append((child, k, g))
                k = g
        return root

    def root_locus(self) -> Locus | None:
        return self._root_locus

    def blind_descend(self, pattern: bytes) -> Locus | None:
        """Candidate locus for ``pattern``, or None if the descent dies.

        Only edge first bytes are compared; skipped bytes may mismatch, so a
        returned locus needs ``verify_locus`` unless the pattern is empty.
        """
        table = self.loci_for_pattern_extensions(pattern, len(pattern))
        return table[len(pattern)]

    def loci_for_pattern_extensions(self, pattern: bytes, max_len: int) -> list[Locus | None]:
        """Candidate loci for every prefix of ``pattern`` up to ``max_len`` bytes.

        One root-to-bottom descent; entry L is the locus after L bytes (entry
        0 is the root locus).  Once the descent dies every longer entry is
        None.
        """
        limit = min(max_len, len(pattern))
        out: list[Locus | None] = [self.root_locus()]
        if self.size == 0:
            out.extend([None] * limit)
            return out
        node = self.root
        edge: _Edge | None = None
        offset = 0
        depth = 0
        for idx in range(limit):
            byte = pattern[idx]
            if edge is not None and offset < edge.length:
                offset += 1  # inside an edge: skip blindly
            else:
                if edge is not None:
                    node = edge.child
                    edge = None
                found = None
                for e in node.edges:
                    if e.first == byte:
                        found = e
                        break
                if found is None:
                    out.extend([None] * (limit - idx))
                    return out
                edge = found
                offset = 1
            depth += 1
            below = edge.child
            out.append(Locus(matched_depth=depth, lo=below.lo, hi=below.hi, candidate=True))
        return out

    def prefix_intervals(self, pattern: bytes) -> tuple[list[int], list[int]]:
        """Verified rank intervals for every prefix length of ``pattern``.

        ``(lo[L], hi[L])`` is the rank interval of the set strings starting
        with ``pattern[:L]``.  The lists end at the longest such L; both are
        empty for an empty trie.  One blind descent fills a whole edge's run
        of lengths at once, then one comparison cuts the lists: all strings
        under a locus share its path label and the deepest locus' leftmost
        string lies under every shallower locus, so ``pattern[:L]`` is valid
        iff its LCP with that string is at least L.
        """
        if not self.size:
            return [], []
        node = self.root
        lo = [node.lo]
        hi = [node.hi]
        depth = 0
        limit = len(pattern)
        while depth < limit:
            byte = pattern[depth]
            for edge in node.edges:
                if edge.first == byte:
                    break
            else:
                break
            node = edge.child
            step = min(edge.length, limit - depth)
            lo += [node.lo] * step
            hi += [node.hi] * step
            depth += step
        if depth:
            stored = self._access(node.lo - 1, 0, depth)
            diff = int.from_bytes(stored, "big") ^ int.from_bytes(pattern[:depth], "big")
            if diff:
                # the highest differing bit sits in the first mismatching byte
                lcp = depth - 1 - (diff.bit_length() - 1) // 8
                del lo[lcp + 1 :], hi[lcp + 1 :]
        return lo, hi

    def verify_locus(self, locus: Locus, pattern: bytes) -> Locus | None:
        """Check a candidate locus byte-for-byte against stored text.

        Compares ``pattern`` with the first ``matched_depth`` bytes of the
        locus' leftmost set string (all strings under the locus share them).
        """
        if locus.matched_depth != len(pattern):
            raise ValueError("locus was produced for a different pattern length")
        if not locus.candidate:
            return locus
        rep = locus.lo - 1
        if self._access(rep, 0, locus.matched_depth) != pattern:
            return None
        return Locus(matched_depth=locus.matched_depth, lo=locus.lo, hi=locus.hi, candidate=False)


def build_trie(strings: Sequence[bytes], text_access: TextAccess | None = None) -> CompactTrie:
    """Build a CompactTrie; ``strings`` must be lex-sorted and deduplicated.

    ``text_access(string_id, start, stop)`` extracts bytes of a set string;
    by default the strings themselves are retained for extraction.
    """
    return CompactTrie(strings, text_access)
