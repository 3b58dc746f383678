"""Index serialization: round-trips and format validation."""
import os
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FIXTURE_NAMES,
    FIXTURE_TEXT,
    random_instance,
    random_pattern,
    reference_context_sets,
)
from phylokmer import (
    GenomeRecord,
    build_concatenation,
    build_index,
    classify,
    load_index,
    naive_classify,
    save_index,
)
from phylokmer.lz77 import lz77_parse
from phylokmer.model import reverse_concatenation
from phylokmer.store import MAGIC, IndexFileError

SENTINEL = len(MAGIC) + 2  # after the magic and the u16 version
HEAD = SENTINEL + 1
# The fixture's text follows 9 tree vertices (u32 parent, u16 label size,
# label bytes) and the u64 text size.
TEXT = HEAD + 4 + 9 * 6 + sum(map(len, FIXTURE_NAMES)) + 8
# Its 12 forward phrase records, after the u32 count: columns of u64 start,
# u64 match length, u64 source + 1 and u16 literal.
FORWARD_PHRASES = TEXT + len(FIXTURE_TEXT) + 4
LAST_FORWARD_START = FORWARD_PHRASES + 11 * 8
LAST_FORWARD_SOURCE = FORWARD_PHRASES + 2 * 12 * 8 + 11 * 8
# Then the reverse side's 10 records.
REVERSE_PHRASES = FORWARD_PHRASES + 12 * 26 + 4


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
            suffixes, prefixes, _ = reference_context_sets(cat, lz77_parse(cat.text))
            assert side.suffix_set == suffixes
            assert side.prefix_set == prefixes
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

    for version in (1, 2):
        old = tmp_path / f"v{version}.idx"
        old.write_bytes(data[: len(MAGIC)] + struct.pack("<H", version) + data[len(MAGIC) + 2 :])
        with pytest.raises(IndexFileError, match=f"unsupported format version {version}"):
            load_index(old)


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
        # The sentinel made "A": the text splits into 18 genomes for 5 leaves.
        (SENTINEL, b"A", "18 genomes for 5 leaves"),
        # Parent of vertex 1, right after the tree's vertex count.
        (HEAD + 4, struct.pack("<I", 0x7F), "outside 0..9"),
        (HEAD + 4, struct.pack("<I", 1), "cycle"),
        # Leaf 3 moved under vertex 8: the leaves read 1, 5, 3, 7, 9 left to
        # right, so the min and max leaf of {1, 3, 5} would miss their LCA.
        (HEAD + 4 + 2 * 4, struct.pack("<I", 8), "not numbered in order"),
        # First label byte, after 9 parents (u32) and 9 label sizes (u16).
        (HEAD + 4 + 9 * 6, b"\xff", "utf-8"),
        # Label sizes of vertices 1 to 3, after the 9 parents: leaf 1 loses
        # its label and leaf 3 takes both, so 5 genomes still meet 5 leaves.
        (HEAD + 4 + 9 * 4, struct.pack("<3H", 0xFFFF, 0xFFFF, 16), "leaf without a label"),
        # Leaf 3's label AGATACAT rewritten to leaf 1's.
        (HEAD + 4 + 9 * 6 + 8, b"GATTACAT", "duplicate leaf label 'GATTACAT'"),
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


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.fixture(scope="module")
def fixture_file(worked_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("patched") / "fixture.idx"
    save_index(worked_index, path)
    return path


def _phrase_field(side: int, row: int, column: int) -> tuple[int, str]:
    """Offset and struct code of one phrase record field of the fixture file."""
    base, z = ((FORWARD_PHRASES, 12), (REVERSE_PHRASES, 10))[side]
    row %= z
    if column < 3:
        return base + column * 8 * z + row * 8, "<Q"
    return base + 24 * z + row * 2, "<H"


@st.composite
def patches(draw):
    """(offset, bytes) for one phrase field, text byte, the sentinel or one tree parent."""
    kind = draw(st.sampled_from(["phrase", "text", "sentinel", "parent"]))
    if kind == "phrase":
        offset, code = _phrase_field(
            draw(st.integers(0, 1)), draw(st.integers(0, 11)), draw(st.integers(0, 3))
        )
        return offset, struct.pack(code, draw(st.integers(0, 0x101 if code == "<H" else 50)))
    value = bytes([draw(st.sampled_from(b"ACGT$\x00\xff") | st.integers(0, 255))])
    if kind == "text":
        return TEXT + draw(st.integers(0, len(FIXTURE_TEXT) - 1)), value
    if kind == "sentinel":
        return SENTINEL, value
    return HEAD + 4 + 4 * draw(st.integers(0, 8)), struct.pack("<I", draw(st.integers(0, 10)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(patch=patches())
def test_patched_files_fail_or_answer_exactly(fixture_file, patch):
    """A file either fails to load or answers like the oracle on what it holds."""
    offset, value = patch
    data = fixture_file.read_bytes()
    crafted = fixture_file.with_name("crafted.idx")
    crafted.write_bytes(_with_crc(data[:offset] + value + data[offset + len(value) : -4]))
    try:
        loaded = load_index(crafted)
    except IndexFileError:
        return
    tree = loaded.tree
    pieces = loaded.forward.text.split(bytes([loaded.sentinel]))
    genomes = [GenomeRecord(name, seq) for name, seq in zip(tree.leaf_labels(), pieces)]
    for pattern in (b"GATTACAT", b"TAGACA", b"AGATACATAGATTAG", *pieces):
        if loaded.sentinel in pattern:
            continue
        for k in range(1, len(pattern) + 1):
            assert classify(loaded, pattern, k) == naive_classify(tree, genomes, pattern, k)
