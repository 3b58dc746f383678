"""Phylogenetic tree, genome records, and the sentinel-separated concatenation.

Vertices are identified by their 1-based in-order numbers: a vertex is
numbered directly after its first child subtree, so leaf numbers increase
left to right and, for a strictly binary tree with g leaves, leaf i gets
number 2i - 1.  All downstream structures speak these numbers.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Iterable

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


_LABEL_FORBIDDEN = set("();,:")


def parse_newick(source: str | IO[str]) -> PhyloTree:
    """Parse a Newick string (or text stream) into a PhyloTree.

    Supported subset: nested groups, leaf and optional internal labels, and
    branch lengths (parsed, then ignored).  Unary groups such as ``(A);``
    collapse onto their only child.  Leaf labels must be unique and
    non-empty; quoted labels and comments are not supported.
    """
    text = _read_text(source)

    # Temporary node records: children lists index into these arrays.
    kids: list[list[int]] = []
    names: list[str | None] = []

    def new_node(children: list[int], label: str | None) -> int:
        kids.append(children)
        names.append(label)
        return len(kids) - 1

    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_label() -> str:
        nonlocal pos
        start = pos
        while pos < n and text[pos] not in _LABEL_FORBIDDEN and not text[pos].isspace():
            pos += 1
        return text[start:pos]

    def skip_branch_length() -> None:
        nonlocal pos
        if pos < n and text[pos] == ":":
            pos += 1
            start = pos
            while pos < n and text[pos] not in _LABEL_FORBIDDEN and not text[pos].isspace():
                pos += 1
            try:
                float(text[start:pos])
            except ValueError:
                raise NewickError(f"bad branch length at offset {start}") from None

    # stack holds the child lists of currently open groups; expect tracks how
    # many children each group must have collected so far (commas seen + 1),
    # which catches empty slots such as "(,B)" or "(A,)".
    stack: list[list[int]] = [[]]
    expect: list[int] = [1]
    saw_semicolon = False
    while pos < n:
        skip_ws()
        if pos >= n:
            break
        ch = text[pos]
        if ch == "(":
            stack.append([])
            expect.append(1)
            pos += 1
        elif ch == ",":
            if len(stack) < 2:
                raise NewickError(f"comma outside a group at offset {pos}")
            if len(stack[-1]) != expect[-1]:
                raise NewickError(f"empty group slot at offset {pos}")
            expect[-1] += 1
            pos += 1
        elif ch == ")":
            if len(stack) < 2:
                raise NewickError(f"unbalanced ')' at offset {pos}")
            group = stack.pop()
            if len(group) != expect.pop():
                raise NewickError(f"empty group slot at offset {pos}")
            pos += 1
            label = read_label()
            skip_branch_length()
            stack[-1].append(new_node(group, label or None))
        elif ch == ";":
            pos += 1
            saw_semicolon = True
            break
        else:
            label = read_label()
            if not label:
                raise NewickError(f"unexpected character {ch!r} at offset {pos}")
            skip_branch_length()
            stack[-1].append(new_node([], label))

    if not saw_semicolon:
        raise NewickError("missing terminating ';'")
    if text[pos:].strip():
        raise NewickError("trailing content after ';'")
    if len(stack) != 1:
        raise NewickError("unbalanced '('")
    if len(stack[0]) != 1:
        raise NewickError("expected exactly one top-level subtree")

    # Splice out unary groups (iteratively, so deep trees are safe); the
    # single child takes the node's place.
    root_tmp = stack[0][0]
    while len(kids[root_tmp]) == 1:
        root_tmp = kids[root_tmp][0]
    work = [root_tmp]
    while work:
        node = work.pop()
        new_children = []
        for c in kids[node]:
            while len(kids[c]) == 1:
                c = kids[c][0]
            new_children.append(c)
            work.append(c)
        kids[node] = new_children

    return _number_tree(root_tmp, kids, names)


def _number_tree(root_tmp: int, kids: list[list[int]], names: list[str | None]) -> PhyloTree:
    """Assign in-order numbers (vertex after its first child subtree) and freeze arrays."""
    number: dict[int, int] = {}
    next_number = 1
    # Work items: ("visit", node) expands, ("number", node) assigns.
    work: list[tuple[str, int]] = [("visit", root_tmp)]
    while work:
        action, node = work.pop()
        if action == "number" or not kids[node]:
            number[node] = next_number
            next_number += 1
            continue
        children = kids[node]
        rest = [("visit", c) for c in children[1:]]
        work.extend(reversed(rest))
        work.append(("number", node))
        work.append(("visit", children[0]))

    count = len(number)
    parent = [0] * (count + 1)
    children_arr: list[tuple[int, ...]] = [()] * (count + 1)
    labels: list[str | None] = [None] * (count + 1)
    leaves = []
    for tmp, num in number.items():
        children_arr[num] = tuple(number[c] for c in kids[tmp])
        labels[num] = names[tmp]
        for c in kids[tmp]:
            parent[number[c]] = num
        if not kids[tmp]:
            leaves.append(num)
    leaves.sort()

    seen: set[str] = set()
    for v in leaves:
        label = labels[v]
        if not label:
            raise NewickError("leaf without a label")
        if label in seen:
            raise NewickError(f"duplicate leaf label {label!r}")
        seen.add(label)

    root = parent.index(0, 1)
    return PhyloTree(
        parent=tuple(parent),
        children=tuple(children_arr),
        labels=tuple(labels),
        root=root,
        leaves=tuple(leaves),
    )


def parse_fasta(source: str | IO[str], sentinel: bytes | int = DEFAULT_SENTINEL) -> list[GenomeRecord]:
    """Parse FASTA records: multi-record, wrapped lines, uppercased sequences.

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
                chunks.append(stripped.upper().encode("latin-1"))
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
