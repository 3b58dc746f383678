"""Binary index file format, version 4: the LZ77 parses, not the text.

Little-endian throughout.  Layout: magic, format version (u16), sentinel
byte, tree section, the text length (u32), the phrases of the forward and
of the reverse side, and last a CRC32 of every byte before it.  A section
is a u32 row count followed by one ``struct``-packed column per field.  A
side's section holds the columns of its ``Lz77Parse`` as they are: match
lengths (u32) and sources + 1 (u32, 0 for none), and on the forward side
the literals (u8); a reverse phrase's literal is a byte of the reversed
text.  A final phrase that has no literal writes 0 in its place, so an
index has exactly one file.  Load reads the columns back into an
``Lz77Parse``, with no object per phrase.  Everything else is derived on
load: the text by copying each forward phrase from its source (an
overlapping source by doubling the copied periods), phrase starts as
running sums, the concatenation from the leaf labels and the
text split at the sentinel, each side's contexts, tries and grid by the
same ``engine.build_side`` the build uses, and the LCA tables.

``save_index`` writes a temporary file next to the target, fsyncs it and
renames it over the target, so a failed save leaves the previous file as it
was; a text of 2**32 bytes or more raises ValueError before anything is
written.  ``load_index`` checks the magic, the version and the CRC, then
the structure: UTF-8 labels, a tree that passes the checks ``parse_newick``
trees pass (``model.tree_from_parents``: one root, no cycle, in-order
vertex numbers, unique non-empty leaf labels), phrase lengths that tile the
declared length on each side (before anything is decoded), each phrase
copying an earlier source, reverse phrases that decode to the reversed
text, and one genome per leaf.  That is all an exact answer needs: every
k-mer's leftmost occurrence then crosses a phrase boundary.  Load memory
follows the declared text length, at most 4 GiB - 1, not the file size.
Any failure raises IndexFileError.  Version 1, 2 and 3 files are rejected
("unsupported format version ...") and must be rebuilt.
"""
from __future__ import annotations

import contextlib
import os
import struct
import zlib
from itertools import accumulate

from .engine import KmerIndex, assemble_index
from .grid import ContextGrid  # noqa: F401 -- perfbench/tracing.py wraps store.ContextGrid
from .lca import build_lca  # noqa: F401 -- perfbench/tracing.py wraps store.build_lca
from .lz77 import Lz77Parse
from .model import GenomeRecord, PhyloTree, build_concatenation, tree_from_parents
from .tries import build_trie  # noqa: F401 -- perfbench/tracing.py wraps store.build_trie

MAGIC = b"PKMRIDX\x00"
FORMAT_VERSION = 4

_NO_LABEL = 0xFFFF


class IndexFileError(ValueError):
    """Unreadable, damaged or incompatible index file."""


def _section(out: list[bytes], codes: str, columns) -> None:
    """Append a row count, then one column per struct code in ``codes``."""
    out.append(struct.pack("<I", len(columns[0])))
    for code, column in zip(codes, columns):
        out.append(struct.pack(f"<{len(column)}{code}", *column))


class _Reader:
    def __init__(self, data: bytes, pos: int, end: int):
        self.data = data
        self.pos = pos
        self.end = end

    def take(self, size: int) -> bytes:
        if self.pos + size > self.end:
            raise IndexFileError("truncated index data")
        self.pos += size
        return self.data[self.pos - size : self.pos]

    def section(self, codes: str) -> list[tuple[int, ...]]:
        (count,) = struct.unpack("<I", self.take(4))
        return [
            struct.unpack(f"<{count}{code}", self.take(count * struct.calcsize(code)))
            for code in codes
        ]


def _check(ok: bool, problem: str) -> None:
    if not ok:
        raise IndexFileError(problem)


def _write_tree(out: list[bytes], tree: PhyloTree) -> None:
    labels = [None if label is None else label.encode("utf-8") for label in tree.labels[1:]]
    if any(label is not None and len(label) >= _NO_LABEL for label in labels):
        raise ValueError("vertex label too long")
    sizes = [_NO_LABEL if label is None else len(label) for label in labels]
    _section(out, "IH", (tree.parent[1:], sizes))
    out.extend(label for label in labels if label)


def _read_tree(src: _Reader) -> PhyloTree:
    parents, sizes = src.section("IH")
    labels = [None if n == _NO_LABEL else src.take(n).decode("utf-8") for n in sizes]
    return tree_from_parents((0, *parents), (None, *labels))


def _read_parse(src: _Reader, n: int, text: bytes | None = None) -> tuple[bytes, Lz77Parse]:
    """Read one side's phrases, check that they tile ``n`` bytes, and decode them.

    The reverse side, given its reversed ``text``, has no literal column: it
    takes its literals from ``text`` and must decode to it.
    """
    lens, sources, *column = src.section("IIB" if text is None else "II")
    starts = [0, *accumulate(length + 1 for length in lens)]
    short = starts.pop() - n  # 1 when the final phrase has no literal
    _check(short in (0, 1) and (not short or lens[-1] > 0), f"phrases do not tile {n} bytes")
    if column:
        _check(not short or column[0][-1] == 0, "literal byte after the final phrase's match")
        literals = bytes(column[0][: len(lens) - short])
    else:
        literals = bytes(text[s + m] for s, m in zip(starts, lens[: len(lens) - short]))
    out = bytearray()
    # source is stored + 1 with 0 for none, and out holds the text before start;
    # a padding literal after the last phrase is cut with any other excess
    for start, length, source, literal in zip(starts, lens, sources, literals + b"\0"):
        if (source == 0) != (length == 0) or source > start:
            raise IndexFileError(f"phrase at {start} has no earlier source")
        out += out[source - 1 : min(source - 1 + length, start)]
        end = start + length
        while len(out) < end:  # an overlapping source: double the copied periods
            out += out[start : start + end - len(out)]
        out.append(literal)
    del out[n:]
    _check(text is None or out == text, "reverse phrases do not spell the reversed text")
    parse = Lz77Parse(lens, tuple(s - 1 for s in sources), literals, (*starts, n))
    return bytes(out), parse


def save_index(index: KmerIndex, path) -> None:
    """Write the index to ``path`` in format version 4, atomically."""
    n = len(index.forward.text)
    if n >= 1 << 32:
        raise ValueError(f"text of {n} bytes too long for the index file")
    out = [MAGIC, struct.pack("<HB", FORMAT_VERSION, index.sentinel)]
    _write_tree(out, index.tree)
    out.append(struct.pack("<I", n))
    for parse, codes in ((index.forward.parse, "IIB"), (index.reverse.parse, "II")):
        # sources + 1 (0: none); a final phrase without a literal writes 0
        sources = [source + 1 for source in parse.sources]
        _section(out, codes, (parse.match_lens, sources, parse.literals.ljust(parse.z, b"\0")))
    payload = b"".join(out)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload)))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_index(path) -> KmerIndex:
    """Read an index written by save_index; IndexFileError if foreign, damaged or of another version."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(MAGIC)] != MAGIC:
        raise IndexFileError(f"{path}: not an index file (bad magic)")
    head = len(MAGIC) + 3
    if len(data) < head + 4:
        raise IndexFileError(f"{path}: truncated index file")
    version, sentinel = struct.unpack_from("<HB", data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise IndexFileError(f"{path}: unsupported format version {version}")
    if zlib.crc32(memoryview(data)[:-4]) != struct.unpack_from("<I", data, len(data) - 4)[0]:
        raise IndexFileError(f"{path}: checksum mismatch, the file is damaged")
    src = _Reader(data, head, len(data) - 4)
    try:
        tree = _read_tree(src)
        (n,) = struct.unpack("<I", src.take(4))
        text, forward = _read_parse(src, n)
        _, reverse = _read_parse(src, n, text[::-1])
        _check(src.pos == src.end, "trailing bytes after index data")
        pieces = text.split(bytes([sentinel]))
        names = tree.leaf_labels()
        _check(len(pieces) == len(names), f"{len(pieces)} genomes for {len(names)} leaves")
        genomes = [GenomeRecord(name, seq) for name, seq in zip(names, pieces)]
        concat = build_concatenation(tree, genomes, sentinel)
    except ValueError as exc:  # IndexFileError, bad UTF-8, or an empty or duplicate genome
        raise IndexFileError(f"{path}: {exc}") from None
    return assemble_index(tree, concat, forward, reverse)
