"""Compact tries with blind descent and one verification per descent.

Built over sorted byte strings, given as (start, length) refs into one
text, in one pass over adjacent pairs.  Each node maps the first byte of
each outgoing edge to its child; an edge's length is the difference of the
two depths and its label is never stored, since every string under a node
shares that node's path label.  Descent compares only those first bytes
and skips the rest, so a reported locus is a candidate until verified
against stored text.  ``descend`` walks node to node and verifies every
prefix length it reached with a single comparison; it returns the verified
length and the chain of path nodes, from which the rank interval of any
shorter length is one bisect away.  A set string that is a proper prefix
of another ends at the node at its depth and is that node's leftmost
string, since it sorts before every extension, so ranks in left-to-right
order equal the 1-based sorted-set ranks.  Nodes keep no terminal mark,
which no descent reads: a node of depth d ends a string iff its leftmost
string is d bytes long.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .lz77 import common_prefix


class _Node:
    __slots__ = ("children", "lo", "hi", "depth")

    def __init__(self, lo: int, hi: int, depth: int):
        # first byte of the edge -> child, in byte order; the leftmost string
        # under a child holds the edge label at [self.depth, child.depth).
        self.children: dict[int, _Node] = {}
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


class CompactTrie:
    """Compact trie over lex-sorted, distinct strings given as (start, length)
    refs into ``text``; descents read the strings back from both."""

    def __init__(self, text: bytes, refs: Sequence[tuple[int, int]]):
        self.text = text
        self.refs = refs
        self.size = len(refs)
        self.root = self._build(text, refs)

    @staticmethod
    def _build(text: bytes, refs: Sequence[tuple[int, int]]) -> _Node:
        """One pass keeping the rightmost path on a stack: each string's LCP
        with its predecessor closes the path nodes deeper than it, splits the
        edge it ends inside, if any, and shows whether the pair is in strict
        lex order; the string hangs below the path node at that depth."""
        root = _Node(lo=1, hi=len(refs), depth=0)
        path = [root]
        prev = prev_len = 0
        for rank, (pos, length) in enumerate(refs, start=1):
            lcp = common_prefix(text, prev, pos, min(prev_len, length))  # 0 for the first
            if rank > 1 and (lcp == length or lcp < prev_len and text[prev + lcp] > text[pos + lcp]):
                raise ValueError("strings must be sorted and deduplicated")
            while path[-1].depth > lcp:
                below = path.pop()
                below.hi = rank - 1
            parent = path[-1]
            if parent.depth < lcp:
                # the LCP ends inside the edge down to ``below``: split it there
                mid = _Node(lo=below.lo, hi=0, depth=lcp)
                mid.children[text[prev + lcp]] = below
                parent.children[text[prev + parent.depth]] = mid
                path.append(mid)
                parent = mid
            if length > parent.depth:  # else the empty string, at the root
                node = parent.children[text[pos + parent.depth]] = _Node(rank, 0, length)
                path.append(node)
            prev, prev_len = pos, length
        for node in path[1:]:
            node.hi = len(refs)
        return root

    def root_locus(self) -> Locus | None:
        return Locus(matched_depth=0, lo=1, hi=self.size, candidate=False) if self.size else None

    def blind_descend(self, pattern: bytes) -> Locus | None:
        """Candidate locus for ``pattern``, or None if the descent dies.

        Only edge first bytes are compared; skipped bytes may mismatch, so a
        returned locus needs ``verify_locus`` unless the pattern is empty.
        """
        return self.loci_for_pattern_extensions(pattern, len(pattern))[-1]

    def loci_for_pattern_extensions(self, pattern: bytes, max_len: int) -> list[Locus | None]:
        """Candidate loci for every prefix of ``pattern`` up to ``max_len`` bytes.

        One root-to-bottom descent; entry L is the locus after L bytes (entry
        0 is the root locus).  Once the descent dies every longer entry is
        None.
        """
        pattern = pattern[:max_len]
        _, depths, nodes = self.descend(pattern)  # its walk is the blind descent
        out: list[Locus | None] = [self.root_locus()]
        for length in range(1, len(pattern) + 1):
            if length > depths[-1]:
                out.append(None)
            else:
                node = nodes[bisect_left(depths, length)]
                out.append(Locus(matched_depth=length, lo=node.lo, hi=node.hi, candidate=True))
        return out

    def descend(self, pattern: bytes) -> tuple[int, list[int], list[_Node]]:
        """Verified descent: ``(length, depths, nodes)`` for ``pattern``.

        ``length`` is the longest L such that some set string starts with
        ``pattern[:L]`` (-1 for an empty trie).  ``nodes`` is the path from
        the root, ``depths`` their depths; for 0 <= L <= length the strings
        starting with ``pattern[:L]`` are the ranks ``node.lo..node.hi`` of
        ``node = nodes[bisect_left(depths, L)]``, the node at the bottom of
        the edge holding ``pattern[L - 1]``.  The walk compares edge first
        bytes only, then one comparison decides every length: all strings
        under a node share its path label and the deepest node's leftmost
        string lies under every shallower one, so ``pattern[:L]`` is valid
        iff its LCP with that string is at least L.
        """
        node = self.root
        depths = [0]
        nodes = [node]
        if not self.size:
            return -1, depths, nodes
        limit = len(pattern)
        depth = 0
        while depth < limit:
            child = node.children.get(pattern[depth])
            if child is None:
                break
            node = child
            depth = node.depth
            depths.append(depth)
            nodes.append(node)
        if depth > limit:
            depth = limit
        if depth:
            pos = self.refs[node.lo - 1][0]
            stored = self.text[pos : pos + depth]
            diff = int.from_bytes(stored, "big") ^ int.from_bytes(pattern[:depth], "big")
            if diff:
                # the highest differing bit sits in the first mismatching byte
                depth = depth - 1 - (diff.bit_length() - 1) // 8
        return depth, depths, nodes

    def verify_locus(self, locus: Locus, pattern: bytes) -> Locus | None:
        """Check a candidate locus byte-for-byte against stored text.

        Compares ``pattern`` with the first ``matched_depth`` bytes of the
        locus' leftmost set string (all strings under the locus share them).
        """
        if locus.matched_depth != len(pattern):
            raise ValueError("locus was produced for a different pattern length")
        if not locus.candidate:
            return locus
        pos = self.refs[locus.lo - 1][0]
        if self.text[pos : pos + locus.matched_depth] != pattern:
            return None
        return Locus(matched_depth=locus.matched_depth, lo=locus.lo, hi=locus.hi, candidate=False)


def build_trie(
    strings: Sequence[bytes] = (),
    *,
    text: bytes | None = None,
    refs: Sequence[tuple[int, int]] = (),
) -> CompactTrie:
    """Build a CompactTrie over lex-sorted, deduplicated strings.

    The strings are (start, length) ``refs`` into ``text``; plain
    ``strings`` are joined into one text first, so both take the same path.
    """
    if text is None:
        text = b"".join(strings)
        lengths = [len(s) for s in strings]
        refs = list(zip(accumulate(lengths, initial=0), lengths))
    return CompactTrie(text, refs)
