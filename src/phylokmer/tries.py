"""Compact tries with blind descent and one verification per descent.

Built over a sorted set of byte strings.  Each node maps the first byte of
each outgoing edge to its child; an edge's length is the difference of the
two depths and its label is never stored, since every string under a node
shares that node's path label.  Descent compares only those first bytes
and skips the rest, so a reported locus is a candidate until verified
against stored text.  ``descend`` walks node to node and verifies every
prefix length it reached with a single comparison; it returns the verified
length and the chain of path nodes, from which the rank interval of any
shorter length is one bisect away.  A set string that is a proper prefix
of another ends at a terminal mark on the node at its depth; terminals
sort before outgoing edges, so leaf ranks in left-to-right order equal the
1-based sorted-set ranks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

TextAccess = Callable[[int, int, int], bytes]


class _Node:
    __slots__ = ("children", "terminal_rank", "lo", "hi", "depth")

    def __init__(self, lo: int, hi: int, depth: int):
        # first byte of the edge -> child, in byte order; the leftmost string
        # under a child holds the edge label at [self.depth, child.depth).
        self.children: dict[int, _Node] = {}
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
                    child_depth = len(strings[k])
                else:
                    a, b = strings[k], strings[g - 1]
                    limit = min(len(a), len(b))
                    child_depth = depth
                    while child_depth < limit and a[child_depth] == b[child_depth]:
                        child_depth += 1
                child = node.children[first] = _Node(lo=k + 1, hi=g, depth=child_depth)
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
        below = self.root  # the node at the bottom of the edge being read
        for idx in range(limit):
            if idx == below.depth:
                below = below.children.get(pattern[idx])
                if below is None:
                    out.extend([None] * (limit - idx))
                    return out
            # inside an edge the byte is skipped blindly
            out.append(Locus(matched_depth=idx + 1, lo=below.lo, hi=below.hi, candidate=True))
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
            stored = self._access(node.lo - 1, 0, depth)
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
