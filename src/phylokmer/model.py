"""Phylogenetic tree, genome records, and the sentinel-separated concatenation.

Vertices are identified by their 1-based in-order numbers: a vertex is
numbered directly after its first child subtree, so leaf numbers increase
left to right and, for a strictly binary tree with g leaves, leaf i gets
number 2i - 1.  All downstream structures speak these numbers.
``parse_newick`` gives them while it reads the string, and every tree,
parsed or loaded from an index file, is checked by ``tree_from_parents``.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Iterable, Sequence

DEFAULT_SENTINEL = b"$"


class NewickError(ValueError):
    """Malformed or unsupported Newick input."""


class FastaError(ValueError):
    """Malformed FASTA input."""


@dataclass(frozen=True)
class GenomeRecord:
    """One named genome; the sequence is an arbitrary sentinel-free byte string."""

    name: str
    sequence: bytes


@dataclass(frozen=True)
class PhyloTree:
    """Rooted ordered tree with labeled leaves.

    Arrays are indexed by vertex number; slot 0 is unused.  ``parent[root]``
    is 0.  ``children`` preserves the input child order.  ``leaves`` lists
    leaf vertex numbers left to right.
    """

    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    labels: tuple[str | None, ...]
    root: int
    leaves: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.parent) - 1

    def label_of(self, vertex: int) -> str | None:
        if not 1 <= vertex <= self.vertex_count:
            raise ValueError(f"vertex {vertex} out of range 1..{self.vertex_count}")
        return self.labels[vertex]

    def leaf_labels(self) -> tuple[str, ...]:
        return tuple(self.labels[v] or "" for v in self.leaves)


@dataclass(frozen=True)
class Concatenation:
    """Genomes joined in leaf order by single sentinel bytes, no trailing sentinel.

    ``genome_spans`` holds one half-open (start, end) interval per genome, in
    the same order as the genomes appear in ``text``.
    """

    text: bytes
    genome_spans: tuple[tuple[int, int], ...]
    sentinel: int

    @property
    def genome_count(self) -> int:
        return len(self.genome_spans)


def _sentinel_value(sentinel: bytes | int) -> int:
    if isinstance(sentinel, int):
        value = sentinel
    else:
        if len(sentinel) != 1:
            raise ValueError("sentinel must be a single byte")
        value = sentinel[0]
    if not 0 <= value <= 255:
        raise ValueError("sentinel must be a single byte")
    return value


def _read_text(source: str | IO[str]) -> str:
    return source if isinstance(source, str) else source.read()


_TOKEN = re.compile(r"[^();,:\s]*")


def parse_newick(source: str | IO[str]) -> PhyloTree:
    """Parse a Newick string (or text stream) into a PhyloTree.

    Supported subset: nested groups, leaf and optional internal labels, and
    branch lengths (parsed, then ignored).  Unary groups such as ``(A);``
    collapse onto their only child.  Leaf labels must be unique and
    non-empty; quoted labels and comments are not supported.

    One pass numbers the vertices in order: a leaf when it is read, a group
    at its first comma, right after its first child's subtree.  A group
    without a comma is unary and collapses onto its child at ``)``.
    """
    text = _read_text(source)
    parent: list[int] = [0]
    labels: list[str | None] = [None]
    pos = 0

    def read_label() -> str:
        """The label at pos; a branch length after it is checked and skipped."""
        nonlocal pos
        start, pos = pos, _TOKEN.match(text, pos).end()
        label = text[start:pos]
        if text.startswith(":", pos):
            start, pos = pos + 1, _TOKEN.match(text, pos + 1).end()
            try:
                float(text[start:pos])
            except ValueError:
                raise NewickError(f"bad branch length at offset {start}") from None
        return label

    # One [vertex, first child] per open group, the vertex 0 until the first
    # comma numbers it; the bottom entry holds the whole tree.  filled says
    # whether the innermost group's current slot holds a subtree yet.
    stack = [[0, 0]]
    filled = False

    def fill_slot(child: int) -> None:
        nonlocal filled
        group = stack[-1]
        if group[0]:
            parent[child] = group[0]
        else:
            group[1] = child
        filled = True

    saw_semicolon = False
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch == ";":
            pos += 1
            saw_semicolon = True
            break
        elif ch == ",":
            if len(stack) < 2:
                raise NewickError(f"comma outside a group at offset {pos}")
            if not filled:
                raise NewickError(f"empty group slot at offset {pos}")
            group = stack[-1]
            if not group[0]:
                group[0] = parent[group[1]] = len(parent)
                parent.append(0)
                labels.append(None)
            filled = False
            pos += 1
        elif ch == ")":
            if len(stack) < 2:
                raise NewickError(f"unbalanced ')' at offset {pos}")
            if not filled:
                raise NewickError(f"empty group slot at offset {pos}")
            vertex, first = stack.pop()
            pos += 1
            label = read_label()
            if vertex:
                labels[vertex] = label or None
            fill_slot(vertex or first)
        elif filled:
            raise NewickError(f"missing ',' at offset {pos}")
        elif ch == "(":
            stack.append([0, 0])
            pos += 1
        elif ch == ":":
            raise NewickError(f"unexpected character {ch!r} at offset {pos}")
        else:
            parent.append(0)
            labels.append(read_label())
            fill_slot(len(parent) - 1)

    if not saw_semicolon:
        raise NewickError("missing terminating ';'")
    if text[pos:].strip():
        raise NewickError("trailing content after ';'")
    if len(stack) != 1:
        raise NewickError("unbalanced '('")
    if not filled:
        raise NewickError("expected exactly one top-level subtree")
    try:
        return tree_from_parents(parent, labels)
    except ValueError as exc:
        raise NewickError(str(exc)) from None


def tree_from_parents(parent: Sequence[int], labels: Sequence[str | None]) -> PhyloTree:
    """The tree with these parents and labels, slot 0 unused; children, root
    and leaves are derived.

    Raises ValueError unless the tree has one root and no cycle, its vertices
    are numbered in order, and its leaf labels are unique and non-empty.
    """
    count = len(parent) - 1
    children: list[list[int]] = [[] for _ in range(count + 1)]
    for v in range(1, count + 1):
        p = parent[v]
        if not 0 <= p <= count:
            raise ValueError(f"vertex {v} has parent {p} outside 0..{count}")
        children[p].append(v)
    roots, children[0] = children[0], []
    if len(roots) != 1:
        raise ValueError(f"tree has {len(roots)} roots")
    # In-order walk from the root, a vertex right after its first child's
    # subtree (-v marks that slot).  Vertices on a cycle are never reached.
    order = []
    work = [roots[0]]
    while work:
        v = work.pop()
        kids = children[v] if v > 0 else ()
        if kids:
            work += [*reversed(kids[1:]), -v, kids[0]]
        else:
            order.append(abs(v))
    if len(order) != count:
        raise ValueError("tree has a cycle")
    # The engine needs leaf numbers in left-to-right order: min and max
    # leaves of a genome set then span the smallest subtree holding it.
    if order != list(range(1, count + 1)):
        raise ValueError("tree vertices are not numbered in order")
    leaves = tuple(v for v in order if not children[v])
    seen: set[str] = set()
    for v in leaves:
        label = labels[v]
        if not label:
            raise ValueError("leaf without a label")
        if label in seen:
            raise ValueError(f"duplicate leaf label {label!r}")
        seen.add(label)
    return PhyloTree(
        parent=tuple(parent),
        children=tuple(map(tuple, children)),
        labels=tuple(labels),
        root=roots[0],
        leaves=leaves,
    )


def parse_fasta(source: str | IO[str], sentinel: bytes | int = DEFAULT_SENTINEL) -> list[GenomeRecord]:
    """Parse FASTA records: multi-record, wrapped lines, sequences with a-z
    uppercased and every other byte kept.

    Record names are the first whitespace-delimited token of the header.
    Errors: empty input, duplicate or missing names, empty sequences, and
    sequences containing the sentinel byte.
    """
    sval = _sentinel_value(sentinel)
    records: list[GenomeRecord] = []
    seen: set[str] = set()
    name: str | None = None
    chunks: list[bytes] = []
    name_line = 0

    def flush(line_no: int) -> None:
        if name is None:
            return
        seq = b"".join(chunks)
        if not seq:
            raise FastaError(f"record {name!r} (line {name_line}) has an empty sequence")
        if bytes([sval]) in seq:
            raise FastaError(f"record {name!r} (line {name_line}) contains the sentinel byte")
        if name in seen:
            raise FastaError(f"duplicate record name {name!r} (line {name_line})")
        seen.add(name)
        records.append(GenomeRecord(name, seq))

    line_no = 0
    for line_no, line in enumerate(_read_text(source).splitlines(), start=1):
        if line.startswith(">"):
            flush(line_no)
            header = line[1:].strip()
            if not header:
                raise FastaError(f"empty record name on line {line_no}")
            name = header.split()[0]
            name_line = line_no
            chunks = []
        else:
            stripped = "".join(line.split())
            if stripped and name is None:
                raise FastaError(f"sequence data before any header on line {line_no}")
            if stripped:
                chunks.append(stripped.encode("latin-1").upper())
    flush(line_no + 1)
    if not records:
        raise FastaError("no FASTA records found")
    return records


def build_concatenation(
    tree: PhyloTree,
    genomes: Iterable[GenomeRecord],
    sentinel: bytes | int = DEFAULT_SENTINEL,
) -> Concatenation:
    """Join genome sequences in leaf order with single sentinel separators.

    Genome names must match the tree's leaf labels exactly (no missing, no
    extras); the offending name is reported otherwise.
    """
    sval = _sentinel_value(sentinel)
    by_name: dict[str, GenomeRecord] = {}
    for rec in genomes:
        if rec.name in by_name:
            raise ValueError(f"duplicate genome name {rec.name!r}")
        by_name[rec.name] = rec

    sep = bytes([sval])
    parts: list[bytes] = []
    spans: list[tuple[int, int]] = []
    offset = 0
    for v in tree.leaves:
        label = tree.labels[v] or ""
        rec = by_name.pop(label, None)
        if rec is None:
            raise ValueError(f"no genome provided for leaf {label!r}")
        if not rec.sequence:
            raise ValueError(f"genome {label!r} is empty")
        if sep in rec.sequence:
            raise ValueError(f"genome {label!r} contains the sentinel byte")
        if parts:
            offset += 1
        parts.append(rec.sequence)
        spans.append((offset, offset + len(rec.sequence)))
        offset += len(rec.sequence)
    if by_name:
        extras = ", ".join(sorted(by_name))
        raise ValueError(f"genomes with no matching leaf: {extras}")

    return Concatenation(text=sep.join(parts), genome_spans=tuple(spans), sentinel=sval)


def genome_of_position(concatenation: Concatenation, pos: int) -> int | None:
    """1-based ordinal of the genome covering text position pos, or None on a sentinel.

    ``pos == len(text)`` maps to the last genome by convention, so the
    end-of-text boundary attributes to it.
    """
    text_len = len(concatenation.text)
    if not 0 <= pos <= text_len:
        raise ValueError(f"position {pos} out of range 0..{text_len}")
    if pos == text_len:
        return concatenation.genome_count
    idx = bisect_right(concatenation.genome_spans, pos, key=itemgetter(0)) - 1
    if idx >= 0:
        start, end = concatenation.genome_spans[idx]
        if start <= pos < end:
            return idx + 1
    return None


def reverse_concatenation(concatenation: Concatenation) -> Concatenation:
    """Concatenation of the literally reversed text; spans mirror positionally.

    Genome ordinals of the result follow the reversed text left to right,
    i.e. ordinal 1 is the original last genome.
    """
    n = len(concatenation.text)
    spans = tuple(
        (n - end, n - start) for start, end in reversed(concatenation.genome_spans)
    )
    return Concatenation(
        text=concatenation.text[::-1],
        genome_spans=spans,
        sentinel=concatenation.sentinel,
    )
