"""Binary index file format, version 3.

Little-endian throughout.  Layout: magic, format version (u16), sentinel
byte, tree section, the forward text (stored once: the reverse side's text
is its reversal), then the phrase records of the forward and of the reverse
side, and last a CRC32 of every byte before it.  A section is a u32 row
count followed by one ``struct``-packed column per field.  Everything else
is derived on load: the concatenation from the leaf labels and the text
split at the sentinel, then each side's contexts, tries and grid by the
same ``engine.build_side`` the build uses, and the LCA tables.

``save_index`` writes a temporary file next to the target, fsyncs it and
renames it over the target, so a failed save leaves the previous file as it
was.  ``load_index`` checks the magic, the version and the CRC, then the
structure: UTF-8 labels, a tree that passes the checks ``parse_newick``
trees pass (``model.tree_from_parents``: one root, no cycle, in-order
vertex numbers, unique non-empty leaf labels), one genome per leaf, and
phrases that tile the text and copy what their earlier sources hold.
That is all an exact answer needs: every k-mer's leftmost occurrence then
crosses a phrase boundary.  Any failure raises IndexFileError.  Version 1
and 2 files are rejected ("unsupported format version ...") and must be
rebuilt.
"""
from __future__ import annotations

import contextlib
import os
import struct
import zlib

from .engine import KmerIndex, assemble_index
from .grid import ContextGrid  # noqa: F401 -- perfbench/tracing.py wraps store.ContextGrid
from .lca import build_lca  # noqa: F401 -- perfbench/tracing.py wraps store.build_lca
from .lz77 import Lz77Parse, Phrase
from .model import GenomeRecord, PhyloTree, build_concatenation, tree_from_parents
from .tries import build_trie  # noqa: F401 -- perfbench/tracing.py wraps store.build_trie

MAGIC = b"PKMRIDX\x00"
FORMAT_VERSION = 3

_NO_LITERAL = 0x0100
_NO_LABEL = 0xFFFF


class IndexFileError(ValueError):
    """Unreadable, damaged or incompatible index file."""


def _section(out: list[bytes], codes: str, rows) -> None:
    """Append a row count, then one column per struct code in ``codes``."""
    out.append(struct.pack("<I", len(rows)))
    # zip(*rows) of no rows yields no columns, not empty ones
    for code, column in zip(codes, list(zip(*rows)) or [()] * len(codes)):
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
    _section(out, "IH", list(zip(tree.parent[1:], sizes)))
    out.extend(label for label in labels if label)


def _read_tree(src: _Reader) -> PhyloTree:
    parents, sizes = src.section("IH")
    labels = [None if n == _NO_LABEL else src.take(n).decode("utf-8") for n in sizes]
    return tree_from_parents((0, *parents), (None, *labels))


def _write_parse(out: list[bytes], parse: Lz77Parse) -> None:
    phrases = [
        (
            p.start,
            p.match_len,
            0 if p.source is None else p.source + 1,
            _NO_LITERAL if p.literal is None else p.literal,
        )
        for p in parse.phrases
    ]
    _section(out, "QQQH", phrases)


def _check_phrases(text: bytes, starts, match_lens, sources, literals) -> None:
    """The phrases must tile the text, each copying an earlier source then its literal."""
    n = len(text)
    pos = 0
    for start, length, source, literal in zip(starts, match_lens, sources, literals):
        end = start + length
        if literal == _NO_LITERAL:
            ok = length > 0 and end == n
        else:
            ok = end < n and text[end] == literal
        # source is stored + 1 with 0 for none: text[-1:-1] is empty like a zero-length match
        if not (
            ok
            and start == pos
            and (source == 0) == (length == 0)
            and source <= start
            and text[source - 1 : source - 1 + length] == text[start:end]
        ):
            raise IndexFileError(f"phrase at {start} does not match the text")
        pos = end + (literal != _NO_LITERAL)
    _check(pos == n, "phrases do not cover the text")


def _read_parse(src: _Reader, text: bytes) -> Lz77Parse:
    starts, match_lens, sources, literals = src.section("QQQH")
    _check_phrases(text, starts, match_lens, sources, literals)
    phrases = tuple(
        Phrase(
            start=start,
            match_len=match_len,
            source=source - 1 if source else None,
            literal=None if literal == _NO_LITERAL else literal,
        )
        for start, match_len, source, literal in zip(starts, match_lens, sources, literals)
    )
    return Lz77Parse(phrases=phrases, boundary_positions=(*starts, len(text)))


def save_index(index: KmerIndex, path) -> None:
    """Write the index to ``path`` in format version 3, atomically."""
    out = [MAGIC, struct.pack("<HB", FORMAT_VERSION, index.sentinel)]
    _write_tree(out, index.tree)
    out += [struct.pack("<Q", len(index.forward.text)), index.forward.text]
    _write_parse(out, index.forward.parse)
    _write_parse(out, index.reverse.parse)
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
        (size,) = struct.unpack("<Q", src.take(8))
        text = src.take(size)
        forward = _read_parse(src, text)
        reverse = _read_parse(src, text[::-1])
        _check(src.pos == src.end, "trailing bytes after index data")
        pieces = text.split(bytes([sentinel]))
        names = tree.leaf_labels()
        _check(len(pieces) == len(names), f"{len(pieces)} genomes for {len(names)} leaves")
        genomes = [GenomeRecord(name, seq) for name, seq in zip(names, pieces)]
        concat = build_concatenation(tree, genomes, sentinel)
    except ValueError as exc:  # IndexFileError, bad UTF-8, or an empty or duplicate genome
        raise IndexFileError(f"{path}: {exc}") from None
    return assemble_index(tree, concat, forward, reverse)
