"""Index serialization: round-trips and format validation."""
import os
import random
import struct
import zlib

import pytest

from helpers import FIXTURE_NAMES, FIXTURE_TEXT, random_instance, random_pattern
from phylokmer import build_concatenation, build_index, classify, load_index, save_index
from phylokmer.contexts import build_context_sets
from phylokmer.lz77 import lz77_parse
from phylokmer.model import reverse_concatenation
from phylokmer.store import MAGIC, IndexFileError

HEAD = len(MAGIC) + 3  # magic, u16 version, sentinel byte
# The fixture's 12 forward phrase records, after 9 tree vertices (u32 parent,
# u16 label size, label bytes), the u64 text size, the text and the u32 count.
FORWARD_PHRASES = HEAD + 4 + 9 * 6 + sum(map(len, FIXTURE_NAMES)) + 8 + len(FIXTURE_TEXT) + 4
LAST_FORWARD_START = FORWARD_PHRASES + 11 * 8
LAST_FORWARD_SOURCE = FORWARD_PHRASES + 2 * 12 * 8 + 11 * 8


def test_fixture_round_trip(worked_index, tmp_path):
    path = tmp_path / "fixture.idx"
    save_index(worked_index, path)
    loaded = load_index(path)
    assert loaded.forward.text == worked_index.forward.text
    assert loaded.forward.parse == worked_index.forward.parse
    assert loaded.tree == worked_index.tree
    for k in (1, 3, 6, 7):
        assert classify(loaded, b"TAGACA", k) == classify(worked_index, b"TAGACA", k)


def test_random_round_trips(tmp_path):
    rng = random.Random(61)
    for trial in range(15):
        tree, genomes = random_instance(rng, max_genomes=5, max_genome_len=48)
        index = build_index(tree, genomes)
        path = tmp_path / f"t{trial}.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.reverse.text == loaded.forward.text[::-1]
        concat = build_concatenation(tree, genomes)
        for side, built, cat in (
            (loaded.forward, index.forward, concat),
            (loaded.reverse, index.reverse, reverse_concatenation(concat)),
        ):
            assert side.text == built.text == cat.text
            assert side.parse == built.parse
            assert side.suffix_refs == built.suffix_refs
            assert side.prefix_refs == built.prefix_refs
            assert side.grid.points == built.grid.points
            # The refs point at exactly the context layer's strings.
            suffixes, prefixes, _ = build_context_sets(cat, lz77_parse(cat.text))
            assert side.suffix_set.strings == suffixes.strings
            assert side.prefix_set.strings == prefixes.strings
        for _ in range(8):
            pattern = random_pattern(rng, genomes, max_len=12)
            k = rng.randint(1, len(pattern))
            assert classify(loaded, pattern, k) == classify(index, pattern, k)


def test_file_starts_with_magic(worked_index, tmp_path):
    path = tmp_path / "m.idx"
    save_index(worked_index, path)
    assert path.read_bytes()[: len(MAGIC)] == MAGIC


def test_rejects_foreign_and_damaged_files(worked_index, tmp_path):
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"not an index at all")
    with pytest.raises(IndexFileError):
        load_index(bad)

    path = tmp_path / "ok.idx"
    save_index(worked_index, path)
    data = path.read_bytes()

    truncated = tmp_path / "trunc.idx"
    truncated.write_bytes(data[:-7])
    with pytest.raises(IndexFileError):
        load_index(truncated)

    padded = tmp_path / "padded.idx"
    padded.write_bytes(data + b"\x00")
    with pytest.raises(IndexFileError):
        load_index(padded)

    wrong_version = tmp_path / "ver.idx"
    wrong_version.write_bytes(data[: len(MAGIC)] + b"\xff\xff" + data[len(MAGIC) + 2 :])
    with pytest.raises(IndexFileError):
        load_index(wrong_version)

    version_1 = tmp_path / "v1.idx"
    version_1.write_bytes(data[: len(MAGIC)] + b"\x01\x00" + data[len(MAGIC) + 2 :])
    with pytest.raises(IndexFileError, match="unsupported format version 1"):
        load_index(version_1)


def test_every_single_bit_flip_is_rejected(worked_index, tmp_path):
    path = tmp_path / "ok.idx"
    save_index(worked_index, path)
    data = path.read_bytes()
    damaged = tmp_path / "flip.idx"
    for offset in range(len(data)):
        flipped = bytearray(data)
        flipped[offset] ^= 1 << (offset % 8)
        damaged.write_bytes(flipped)
        with pytest.raises(IndexFileError):
            load_index(damaged)


@pytest.mark.parametrize(
    "offset, patch, problem",
    [
        # Last four bytes before the CRC: the reverse side's last grid label,
        # set to the fixture's root, vertex 6.
        (-8, struct.pack("<I", 6), "not a leaf"),
        # Parent of vertex 1, right after the tree's vertex count.
        (HEAD + 4, struct.pack("<I", 0x7F), "outside 0..9"),
        (HEAD + 4, struct.pack("<I", 1), "cycle"),
        # First label byte, after 9 parents (u32) and 9 label sizes (u16).
        (HEAD + 4 + 9 * 6, b"\xff", "utf-8"),
        # The last forward phrase moved far past the end of the text.
        (LAST_FORWARD_START, struct.pack("<Q", 1_000_000), "phrase at 1000000"),
        # Its source, 26 (stored as 27), shifted by 3: still before the phrase.
        (LAST_FORWARD_SOURCE, struct.pack("<Q", 30), "phrase at 35"),
        # Its source set to its own start, which copies itself trivially.
        (LAST_FORWARD_SOURCE, struct.pack("<Q", 36), "phrase at 35"),
    ],
)
def test_crafted_files_with_valid_crc_are_rejected(worked_index, tmp_path, offset, patch, problem):
    path = tmp_path / "ok.idx"
    save_index(worked_index, path)
    data = path.read_bytes()
    offset %= len(data)
    body = data[:offset] + patch + data[offset + len(patch) : -4]
    crafted = tmp_path / "crafted.idx"
    crafted.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(IndexFileError, match=problem):
        load_index(crafted)


def test_failed_save_leaves_previous_file(worked_index, tmp_path, monkeypatch):
    path = tmp_path / "kept.idx"
    path.write_bytes(b"previous index")

    def broken_fsync(fd):
        raise OSError("disk went away")

    monkeypatch.setattr(os, "fsync", broken_fsync)
    with pytest.raises(OSError, match="disk went away"):
        save_index(worked_index, path)
    assert path.read_bytes() == b"previous index"
    assert list(tmp_path.iterdir()) == [path]
