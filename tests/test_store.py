"""Index serialization: round-trips and format validation."""
import dataclasses
import hashlib
import os
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FIXTURE_NAMES,
    benchmark_generator,
    random_instance,
    random_pattern,
    reconstruct,
    reference_context_sets,
)
from phylokmer import (
    GenomeRecord,
    build_concatenation,
    build_index,
    classify,
    load_index,
    naive_classify,
    parse_fasta,
    save_index,
)
from phylokmer.lz77 import lz77_parse
from phylokmer.model import parse_newick, reverse_concatenation
from phylokmer.store import FORMAT_VERSION, MAGIC, IndexFileError, _Reader, _section, _write_tree

SENTINEL = len(MAGIC) + 2  # after the magic and the u16 version
HEAD = SENTINEL + 1
# The fixture's tree section: the u32 count of its 9 vertices, then a width
# byte and the parents (1 byte each), a width byte and the label sizes (2
# bytes each, since 0xFFFF marks no label), and the label bytes.
PARENTS = HEAD + 4 + 1
LABEL_SIZES = PARENTS + 9 + 1
LABELS = LABEL_SIZES + 9 * 2
# Then the u32 text length (44).
TEXT_LENGTH = LABELS + sum(map(len, FIXTURE_NAMES))
# Its 12 forward phrases, after the u32 count: columns of 1-byte match
# lengths, sources + 1 and literals, each after its width byte.
FORWARD_PHRASES = TEXT_LENGTH + 4 + 4 + 1
LAST_FORWARD_LENGTH = FORWARD_PHRASES + 11
LAST_FORWARD_SOURCE = FORWARD_PHRASES + 13 + 11
FORWARD_LITERALS = FORWARD_PHRASES + 13 * 2
# Then the reverse side's 10 phrases: 1-byte match lengths and sources + 1.
REVERSE_PHRASES = FORWARD_LITERALS + 12 + 4 + 1
REVERSE_SOURCES = REVERSE_PHRASES + 11
# The width byte of every column, in file order.
WIDTHS = (
    PARENTS - 1,
    LABEL_SIZES - 1,
    *(FORWARD_PHRASES - 1 + 13 * column for column in range(3)),
    REVERSE_PHRASES - 1,
    REVERSE_SOURCES - 1,
)


def test_fixture_round_trip(worked_index, tmp_path):
    path = tmp_path / "fixture.idx"
    save_index(worked_index, path)
    # The phrases and the CRC end the file: no copy of the text hides in it.
    assert path.stat().st_size == REVERSE_SOURCES + 10 + 4 == 161
    loaded = load_index(path)
    assert loaded.forward.text == worked_index.forward.text
    assert loaded.forward.parse == worked_index.forward.parse
    assert loaded.tree == worked_index.tree
    for k in (1, 3, 6, 7):
        assert classify(loaded, b"TAGACA", k) == classify(worked_index, b"TAGACA", k)


# Index files of the benchmark's workloads, seeds 1-3, at format v5: the
# first 16 hex digits of their SHA-256.  (genomes, genome length) per
# workload are those of perfbench/run.py.  A change to the parse, the
# contexts or the file layout changes them.
PINNED_INDEX_FILES = {
    ("build", 6, 12_000): ("57cde1fccdafb930", "886f24a5cf50dfc9", "28580bd1c07a0235"),
    ("reads_k31", 16, 2_500): ("a97397ef858468bf", "123b5e5d16872c0e", "f708da1655f40141"),
    ("reads_k63_novel", 48, 1_000): ("97946018e20051f3", "b81e9057fcd5796e", "3a14c56b480274ad"),
}


@pytest.mark.parametrize("workload", PINNED_INDEX_FILES, ids=lambda w: w[0])
def test_benchmark_index_files_are_pinned(workload, tmp_path):
    name, genomes, length = workload
    synth = benchmark_generator()
    for seed, expected in enumerate(PINNED_INDEX_FILES[workload], start=1):
        pangenome = synth.make_pangenome(random.Random(f"{name}:{seed}"), genomes, length)
        index = build_index(parse_newick(pangenome.newick), parse_fasta(pangenome.fasta()))
        path = tmp_path / f"{name}-{seed}.pkm"
        save_index(index, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == expected, seed


def test_sides_share_the_two_text_orientations(tmp_path):
    # Each side's suffix trie reads the reversed text, which is the other
    # side's text: built or loaded, an index keeps one copy of each
    # orientation.
    tree, genomes = random_instance(random.Random(62), max_genomes=5, max_genome_len=48)
    built = build_index(tree, genomes)
    save_index(built, tmp_path / "shared.idx")
    for index in (built, load_index(tmp_path / "shared.idx")):
        assert index.forward.suffix_trie.text is index.reverse.text
        assert index.reverse.suffix_trie.text is index.forward.text
        assert index.forward.prefix_trie.text is index.forward.text
        assert index.reverse.prefix_trie.text is index.reverse.text


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
            assert side.suffix_trie.refs == built.suffix_trie.refs
            assert side.prefix_trie.refs == built.prefix_trie.refs
            assert side.grid.points == built.grid.points
            # The refs point at exactly the context layer's strings.
            suffixes, prefixes, _ = reference_context_sets(cat, lz77_parse(cat.text))
            assert side.suffix_set == suffixes
            assert side.prefix_set == prefixes
        for _ in range(8):
            pattern = random_pattern(rng, genomes, max_len=12)
            k = rng.randint(1, len(pattern))
            assert classify(loaded, pattern, k) == classify(index, pattern, k)


def _unary(rng):
    """One genome of 5000 A: one self-overlapping phrase copies all but the first byte."""
    return parse_newick("G;"), [GenomeRecord("G", b"A" * 5000)]


def _period3(rng):
    return parse_newick("(G1,G2);"), [
        GenomeRecord("G1", b"ACG" * 900 + b"T"),
        GenomeRecord("G2", b"CGA" * 400 + b"C"),
    ]


def _random(rng):
    return random_instance(rng, max_genomes=5, max_genome_len=300)


@pytest.mark.parametrize(
    "make, trials", [(_unary, 1), (_period3, 1), (_random, 12)], ids=["unary", "period-3", "random"]
)
def test_decoded_text_and_parses_equal_the_built_ones(make, trials, tmp_path):
    rng = random.Random(67)
    for trial in range(trials):
        tree, genomes = make(rng)
        index = build_index(tree, genomes)
        path = tmp_path / f"d{trial}.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.forward.text == reconstruct(index.forward.parse) == index.forward.text
        assert loaded.forward.parse == index.forward.parse
        assert loaded.reverse.parse == index.reverse.parse
        if make is _unary:
            assert loaded.forward.parse.match_lens == (0, 4999)
            assert loaded.forward.parse.sources == (-1, 0)
        for _ in range(6):
            pattern = random_pattern(rng, genomes, max_len=40)
            k = rng.randint(1, len(pattern))
            assert classify(loaded, pattern, k) == naive_classify(tree, genomes, pattern, k)


def test_text_too_long_for_u32_is_rejected_before_writing(worked_index, tmp_path):
    class Huge:
        def __len__(self):
            return 1 << 32

    forward = dataclasses.replace(worked_index.forward, text=Huge())
    huge = dataclasses.replace(worked_index, forward=forward)
    with pytest.raises(ValueError, match="too long"):
        save_index(huge, tmp_path / "huge.idx")
    assert list(tmp_path.iterdir()) == []


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

    for version in (1, 2, 3, 4):
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
        # Parent of vertex 1, the first of the tree's parents.
        pytest.param(PARENTS, b"\x7f", "outside 0..9", id="parent-out-of-range"),
        pytest.param(PARENTS, b"\x01", "cycle", id="parent-cycle"),
        # Leaf 3 moved under vertex 8: the leaves read 1, 5, 3, 7, 9 left to
        # right, so the min and max leaf of {1, 3, 5} would miss their LCA.
        pytest.param(PARENTS + 2, b"\x08", "not numbered in order", id="leaf-out-of-order"),
        # First label byte.
        pytest.param(LABELS, b"\xff", "utf-8", id="label-not-utf8"),
        # Label sizes of vertices 1 to 3: leaf 1 loses its label and leaf 3
        # takes both, so 5 genomes still meet 5 leaves.
        pytest.param(
            LABEL_SIZES,
            struct.pack("<3H", 0xFFFF, 0xFFFF, 16),
            "leaf without a label",
            id="leaf-without-label",
        ),
        # Leaf 3's label AGATACAT rewritten to leaf 1's.
        pytest.param(
            LABELS + 8, b"GATTACAT", "duplicate leaf label 'GATTACAT'", id="duplicate-leaf-label"
        ),
        # A width byte outside 1..4, on the tree's parents and on the reverse
        # sources.
        pytest.param(PARENTS - 1, b"\x05", "column width 5 outside 1..4", id="width-5"),
        pytest.param(REVERSE_SOURCES - 1, b"\x00", "column width 0 outside 1..4", id="width-0"),
        # The text length one byte over: the forward phrases spell 44 bytes.
        pytest.param(TEXT_LENGTH, struct.pack("<I", 45), "phrases do not tile 45 bytes", id="length+1"),
        # One byte short: the last forward phrase would end the text without
        # a literal, but its literal byte reads "A", not 0.
        pytest.param(
            TEXT_LENGTH, struct.pack("<I", 43), "literal byte after the final", id="final-literal"
        ),
        # The last forward phrase's length overruns the declared 44 bytes; it
        # is rejected before decoding (and at 2**32 - 1 below).
        pytest.param(
            LAST_FORWARD_LENGTH,
            b"\xff",
            "phrases do not tile 44 bytes",
            id="forward-length-overrun",
        ),
        # Its source, 26 (stored as 27), shifted by 3: still before the phrase,
        # but the decoded text changes and the reverse phrases no longer spell
        # its reversal.
        pytest.param(
            LAST_FORWARD_SOURCE,
            bytes([30]),
            "reverse phrases do not spell",
            id="forward-source-shifted",
        ),
        # Its source set to its own start, which copies itself trivially.
        pytest.param(
            LAST_FORWARD_SOURCE,
            bytes([36]),
            "phrase at 35 has no earlier source",
            id="source-at-own-start",
        ),
        # The reverse phrase at 2 copies "A" from 0 (stored as 1); from 1 it
        # would copy "T".
        pytest.param(
            REVERSE_SOURCES + 2,
            bytes([2]),
            "reverse phrases do not spell",
            id="reverse-source-other-byte",
        ),
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


@pytest.mark.parametrize(
    "text, problem",
    [
        (b"$A", "genome 'X' is empty"),
        (b"A$", "genome 'Y' is empty"),
        (b"A$$A", "3 genomes for 2 leaves"),
    ],
)
def test_crafted_texts_must_hold_one_genome_per_leaf(text, problem, tmp_path):
    # Valid v5 files whose phrases spell the text, written as save_index
    # writes them: the genomes are the runs between separators.
    out = [MAGIC, struct.pack("<HB", FORMAT_VERSION, ord("$"))]
    _write_tree(out, parse_newick("(X,Y);"))
    _write_phrases(out, text)
    crafted = tmp_path / "crafted.idx"
    crafted.write_bytes(_with_crc(b"".join(out)))
    with pytest.raises(IndexFileError, match=problem):
        load_index(crafted)


def _write_phrases(out: list[bytes], text: bytes) -> None:
    """Append the text length and both sides' phrases as save_index writes them."""
    out.append(struct.pack("<I", len(text)))
    for parse, ncolumns in ((lz77_parse(text), 3), (lz77_parse(text[::-1]), 2)):
        sources = [source + 1 for source in parse.sources]
        _section(out, (parse.match_lens, sources, parse.literals.ljust(parse.z, b"\0"))[:ncolumns])


def test_labels_save_refuses_are_rejected(tmp_path):
    # Leaf X's label of 65,536 bytes, whose size takes a 3-byte column: the
    # file is otherwise valid, but save_index refuses labels of 0xFFFF bytes
    # or more, so load does too.
    label = b"X" * 0x10000
    out = [MAGIC, struct.pack("<HB", FORMAT_VERSION, ord("$"))]
    # "(X,Y);": leaf 1 and leaf 3 under the root 2, which has no label
    _section(out, ((2, 0, 2), (len(label), 0xFFFF, 1)))
    out += (label, b"Y")
    _write_phrases(out, b"A$C")
    body = b"".join(out)
    assert body[HEAD + 4 + 1 + 3] == 3  # the label sizes' width byte, after the parents
    crafted = tmp_path / "label.idx"
    crafted.write_bytes(_with_crc(body))
    with pytest.raises(IndexFileError, match="vertex label too long"):
        load_index(crafted)


def test_huge_match_length_is_rejected_before_decoding(worked_index, tmp_path):
    # The last forward phrase's length set to 2**32 - 1, in a 4-byte column:
    # it overruns the declared 44 bytes and is rejected before decoding,
    # which would copy 4 GiB.
    parse = worked_index.forward.parse
    huge = dataclasses.replace(parse, match_lens=(*parse.match_lens[:-1], 2**32 - 1))
    forward = dataclasses.replace(worked_index.forward, parse=huge)
    path = tmp_path / "huge.idx"
    save_index(dataclasses.replace(worked_index, forward=forward), path)
    data = path.read_bytes()
    assert data[FORWARD_PHRASES - 1] == 4
    assert data[FORWARD_PHRASES + 4 * 11 :][:4] == b"\xff" * 4
    with pytest.raises(IndexFileError, match="phrases do not tile 44 bytes"):
        load_index(path)


def test_columns_wider_than_their_values_are_rejected(fixture_file, tmp_path):
    # The tree's parents 2 bytes wide: the same values, but then an index
    # would have more than one file.
    data = fixture_file.read_bytes()
    parents = b"".join(bytes([parent, 0]) for parent in data[PARENTS : PARENTS + 9])
    crafted = tmp_path / "wide.idx"
    crafted.write_bytes(_with_crc(data[: PARENTS - 1] + b"\x02" + parents + data[PARENTS + 9 : -4]))
    with pytest.raises(IndexFileError, match="column width 2 too wide"):
        load_index(crafted)


def test_literals_above_255_are_rejected(tmp_path):
    text = b"ACGT$AC"
    out = [MAGIC, struct.pack("<HB", FORMAT_VERSION, ord("$"))]
    _write_tree(out, parse_newick("(X,Y);"))
    out.append(struct.pack("<I", len(text)))
    forward, reverse = lz77_parse(text), lz77_parse(text[::-1])
    literals = list(forward.literals.ljust(forward.z, b"\0"))
    literals[0] += 256  # "A" in its low byte
    _section(out, (forward.match_lens, [s + 1 for s in forward.sources], literals))
    _section(out, (reverse.match_lens, [s + 1 for s in reverse.sources]))
    crafted = tmp_path / "literal.idx"
    crafted.write_bytes(_with_crc(b"".join(out)))
    with pytest.raises(IndexFileError, match="literal above 255"):
        load_index(crafted)


BOUNDARIES = (0, 255, 256, 65_535, 65_536, 2**24 - 1, 2**24, 2**32 - 1)


@st.composite
def sections(draw):
    """One to three integer columns of equal length, each of values up to a
    byte-width boundary and mostly of the boundaries, and sometimes a
    ``bytes`` column."""
    count = draw(st.integers(0, 30))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.sampled_from(BOUNDARIES))
        value = st.sampled_from([b for b in BOUNDARIES if b <= top]) | st.integers(0, top)
        columns.append(draw(st.lists(value, min_size=count, max_size=count)))
    if draw(st.booleans()):
        columns.append(bytes(draw(st.lists(st.integers(0, 255), min_size=count, max_size=count))))
    return columns


@settings(derandomize=True, max_examples=100, deadline=None)
@given(columns=sections())
def test_sections_round_trip_at_the_narrowest_width(columns):
    out = []
    _section(out, columns)
    data = b"".join(out)
    src = _Reader(data, 0, len(data))
    assert src.section(len(columns)) == [tuple(column) for column in columns]
    assert src.pos == len(data)
    pos = 4  # after the row count
    for column in columns:
        w = data[pos]
        assert w == max(1, (max(column, default=0).bit_length() + 7) // 8), column
        pos += 1 + w * len(column)


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


def _phrase_field(side: int, row: int, column: int) -> int:
    """Offset of one phrase's 1-byte match length (column 0) or source + 1 (1)
    in the fixture file; a column's width byte precedes it."""
    base, z = ((FORWARD_PHRASES, 12), (REVERSE_PHRASES, 10))[side]
    return base + column * (1 + z) + row % z


@st.composite
def patches(draw):
    """(offset, bytes) for one phrase length or source, one forward literal,
    the text length, the sentinel, one tree parent or one column width."""
    kind = draw(st.sampled_from(["phrase", "literal", "length", "sentinel", "parent", "width"]))
    if kind == "phrase":
        offset = _phrase_field(
            draw(st.integers(0, 1)), draw(st.integers(0, 11)), draw(st.integers(0, 1))
        )
        return offset, bytes([draw(st.integers(0, 50))])
    if kind == "length":
        return TEXT_LENGTH, struct.pack("<I", draw(st.integers(40, 48)))
    if kind == "parent":
        return PARENTS + draw(st.integers(0, 8)), bytes([draw(st.integers(0, 10))])
    if kind == "width":
        return draw(st.sampled_from(WIDTHS)), bytes([draw(st.integers(0, 5))])
    value = bytes([draw(st.sampled_from(b"ACGT$\x00\xff") | st.integers(0, 255))])
    if kind == "literal":
        return FORWARD_LITERALS + draw(st.integers(0, 11)), value
    return SENTINEL, value


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
