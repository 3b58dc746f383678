"""Greedy self-referential factorization against a quadratic reference."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FIXTURE_TEXT,
    phrase_texts,
    random_dna,
    reconstruct,
    reference_longest_match,
    reference_lz77_boundaries,
)
from phylokmer.lz77 import lz77_parse

FIXTURE_PHRASES = [
    b"G",
    b"A",
    b"T",
    b"TA",
    b"C",
    b"AT$",
    b"AG",
    b"ATA",
    b"CAT$G",
    b"ATACAT$GATT",
    b"AGAT$",
    b"GATTAGATA",
]


def test_fixture_parse():
    parse = lz77_parse(FIXTURE_TEXT)
    assert parse.z == 12
    assert phrase_texts(parse, FIXTURE_TEXT) == FIXTURE_PHRASES
    assert parse.boundary_positions == (0, 1, 2, 3, 5, 6, 9, 11, 14, 19, 30, 35, 44)
    assert reconstruct(parse) == FIXTURE_TEXT


def test_single_byte():
    parse = lz77_parse(b"G")
    assert parse.z == 1
    assert parse.boundary_positions == (0, 1)
    phrase = parse.phrases[0]
    assert phrase.match_len == 0
    assert phrase.source is None
    assert phrase.literal == ord("G")


def test_run_of_equal_bytes():
    # AAAA: literal A, then a self-overlapping match of length 3.
    parse = lz77_parse(b"AAAA")
    assert parse.boundary_positions == (0, 1, 4)
    last = parse.phrases[-1]
    assert last.match_len == 3
    assert last.source == 0
    assert last.literal is None
    assert reconstruct(parse) == b"AAAA"


def test_final_phrase_may_lack_literal():
    parse = lz77_parse(b"ABAB")
    assert parse.boundary_positions == (0, 1, 2, 4)
    assert parse.phrases[-1].literal is None


def test_sentinel_is_ordinary():
    parse = lz77_parse(b"AB$AB$")
    assert parse.boundary_positions == (0, 1, 2, 3, 6)
    assert phrase_texts(parse, b"AB$AB$")[-1] == b"AB$"


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        lz77_parse(b"")


def test_leftmost_source_preferred():
    parse = lz77_parse(b"ABXABYAB")
    last = parse.phrases[-1]
    assert last.match_len == 2
    assert last.source == 0


def _adversarial_texts(rng):
    """Unary runs, near-periodic strings, copies joined by ``$``, extreme bytes."""
    for length in (1, 2, 63, 64, 65, 127, 128, 129, 600):
        yield b"A" * length
    for period in (b"AC", b"ACG", b"A$", b"\x00\xff", b"\xff\x00$"):
        for _ in range(4):
            text = bytearray((period * 300)[: rng.randint(1, 600)])
            for _ in range(rng.randint(0, 3)):
                text[rng.randrange(len(text))] = rng.choice(b"ACGT$\x00\xff")
            yield bytes(text)
    for _ in range(10):
        genome = random_dna(rng, rng.randint(1, 100))
        copies = []
        for _ in range(rng.randint(1, 5)):
            copy = bytearray(genome)
            copy[rng.randrange(len(copy))] = rng.choice(b"ACGT")
            copies.append(bytes(copy))
        yield b"$".join(copies)
    for _ in range(20):
        yield bytes(rng.choice(b"AC$\x00\xff") for _ in range(rng.randint(1, 256)))


def test_matches_reference_on_random_strings():
    rng = random.Random(7)
    texts = []
    for _ in range(200):
        sigma = rng.randint(1, 4)
        alphabet = b"ACGT"[:sigma]
        length = rng.randint(1, 256)
        texts.append(bytes(rng.choice(alphabet) for _ in range(length)))
    texts.extend(_adversarial_texts(rng))
    for text in texts:
        parse = lz77_parse(text)
        assert list(parse.boundary_positions) == reference_lz77_boundaries(text)
        assert reconstruct(parse) == text


def test_greedy_maximality_on_random_strings():
    rng = random.Random(8)
    for _ in range(100):
        alphabet = b"ACGT"[: rng.randint(1, 3)]
        text = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 128)))
        parse = lz77_parse(text)
        for phrase in parse.phrases:
            assert phrase.match_len == reference_longest_match(text, phrase.start)
            if phrase.source is not None:
                assert phrase.source < phrase.start
                src = bytes(
                    text[phrase.source + k] for k in range(phrase.match_len)
                )
                assert src == text[phrase.start : phrase.start + phrase.match_len]
                # leftmost: no earlier position holds the copied bytes
                assert all(
                    bytes(text[j + k] for k in range(phrase.match_len)) != src
                    for j in range(phrase.source)
                )


def test_phrase_lengths_tile_the_text():
    rng = random.Random(9)
    for _ in range(50):
        text = bytes(rng.choice(b"AC") for _ in range(rng.randint(1, 200)))
        parse = lz77_parse(text)
        pos = 0
        for phrase in parse.phrases:
            assert phrase.start == pos
            pos += phrase.length
        assert pos == len(text)


def _assert_leftmost_maximal(parse, text):
    """Check every phrase with ``bytes.find``, independently of the parser's loop."""
    n = len(text)
    for phrase in parse.phrases:
        s, length = phrase.start, phrase.match_len
        if length:
            assert text.find(text[s : s + length], 0, s + length - 1) == phrase.source
        else:
            assert phrase.source is None
        if s + length < n:
            assert text.find(text[s : s + length + 1], 0, s + length) < 0
            assert phrase.literal == text[s + length]


def test_leftmost_maximal_phrases_on_a_40kb_pangenome():
    # 8 copies of a 5 kB genome, 1% substitutions each, joined by sentinels.
    rng = random.Random(10)
    genome = random_dna(rng, 5000)
    copies = []
    for _ in range(8):
        copy = bytearray(genome)
        for _ in range(50):
            copy[rng.randrange(len(copy))] = rng.choice(b"ACGT")
        copies.append(bytes(copy))
    text = b"$".join(copies)
    parse = lz77_parse(text)
    assert reconstruct(parse) == text
    assert max(p.match_len for p in parse.phrases) > 128  # several 64-byte steps
    _assert_leftmost_maximal(parse, text)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from([b"A", b"AC", b"AC$", b"\x00\xff", b"ACGT$\x00\xff"]).flatmap(
        lambda alphabet: st.lists(st.sampled_from(alphabet), min_size=1, max_size=300).map(bytes)
    )
)
def test_parse_properties(text):
    parse = lz77_parse(text)
    pos = 0
    for phrase in parse.phrases:
        assert phrase.start == pos
        pos += phrase.length
    assert pos == len(text)
    assert parse.boundary_positions == (*(p.start for p in parse.phrases), len(text))
    assert reconstruct(parse) == text
    _assert_leftmost_maximal(parse, text)
