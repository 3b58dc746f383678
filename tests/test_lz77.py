"""Greedy self-referential factorization against a quadratic reference."""
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FIXTURE_TEXT,
    benchmark_generator,
    phrase_texts,
    random_dna,
    reconstruct,
    reference_longest_match,
    reference_lz77_boundaries,
)
from phylokmer import lz77
from phylokmer.lz77 import CAP, EXACT, GRAM, STEP, lz77_parse

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
    assert parse.match_lens == (0,)
    assert parse.sources == (-1,)
    assert parse.literals == b"G"


def test_run_of_equal_bytes():
    # AAAA: literal A, then a self-overlapping match of length 3.
    parse = lz77_parse(b"AAAA")
    assert parse.boundary_positions == (0, 1, 4)
    assert parse.match_lens == (0, 3)
    assert parse.sources == (-1, 0)
    assert parse.literals == b"A"  # the final phrase has no literal
    assert reconstruct(parse) == b"AAAA"


def test_final_phrase_may_lack_literal():
    parse = lz77_parse(b"ABAB")
    assert parse.boundary_positions == (0, 1, 2, 4)
    assert parse.literals == b"AB"  # one byte short: none for the final phrase


def test_sentinel_is_ordinary():
    parse = lz77_parse(b"AB$AB$")
    assert parse.boundary_positions == (0, 1, 2, 3, 6)
    assert phrase_texts(parse, b"AB$AB$")[-1] == b"AB$"


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        lz77_parse(b"")


def test_leftmost_source_preferred():
    parse = lz77_parse(b"ABXABYAB")
    assert parse.match_lens[-1] == 2
    assert parse.sources[-1] == 0


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
        parse = _parses(text)
        assert list(parse.boundary_positions) == reference_lz77_boundaries(text)
        assert reconstruct(parse) == text


def test_greedy_maximality_on_random_strings():
    rng = random.Random(8)
    for _ in range(100):
        alphabet = b"ACGT"[: rng.randint(1, 3)]
        text = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 128)))
        parse = _parses(text)
        for start, length, source in zip(parse.boundary_positions, parse.match_lens, parse.sources):
            assert length == reference_longest_match(text, start)
            if source >= 0:
                assert source < start
                src = bytes(text[source + k] for k in range(length))
                assert src == text[start : start + length]
                # leftmost: no earlier position holds the copied bytes
                assert all(
                    bytes(text[j + k] for k in range(length)) != src
                    for j in range(source)
                )


def _assert_tiles(parse, text):
    """Each phrase starts where the one before ends (its match plus its
    literal, if any), the last one ends the text, and the columns agree."""
    assert len(parse.match_lens) == len(parse.sources) == parse.z
    assert len(parse.literals) in (parse.z - 1, parse.z)
    bounds = parse.boundary_positions
    pos = 0
    for p, length in enumerate(parse.match_lens):
        assert bounds[p] == pos
        pos += length + (p < len(parse.literals))
    assert bounds[parse.z :] == (pos,) == (len(text),)


def test_phrase_lengths_tile_the_text():
    rng = random.Random(9)
    for _ in range(50):
        text = bytes(rng.choice(b"AC") for _ in range(rng.randint(1, 200)))
        _assert_tiles(lz77_parse(text), text)


def _assert_leftmost_maximal(parse, text):
    """Check every phrase with ``bytes.find``, independently of the parser's loop."""
    n = len(text)
    for p, (s, length, source) in enumerate(
        zip(parse.boundary_positions, parse.match_lens, parse.sources)
    ):
        if length:
            assert text.find(text[s : s + length], 0, s + length - 1) == source
        else:
            assert source == -1
        if s + length < n:
            assert text.find(text[s : s + length + 1], 0, s + length) < 0
            assert parse.literals[p] == text[s + length]
        else:  # only a final phrase lacks its literal
            assert p == len(parse.literals) == parse.z - 1


def _parses(text):
    """The parse of ``text``, checked equal to its parse with ``RENT = 0``.

    With ``RENT = 0`` the short-gram frontier moves at every fallback phrase
    after one whose scan was charged, and every listed gram is worth a
    lookup, so small texts reach the short-gram lookup and the finds that
    start at the frontier.
    """
    with patch.object(lz77, "RENT", 0):
        eager = lz77_parse(text)
    parse = lz77_parse(text)
    assert parse == eager
    return parse


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
    parse = _parses(text)
    assert reconstruct(parse) == text
    assert max(parse.match_lens) > 128  # several 64-byte steps
    _assert_leftmost_maximal(parse, text)


@pytest.mark.slow
def test_leftmost_maximal_phrases_on_a_200kb_pangenome():
    # The benchmark's generator, 8 genomes of 25 kB: the first genome is
    # random DNA, whose phrases are short, so the short-gram frontier moves
    # through it; the others are mostly long copies.  Both orientations.
    synth = benchmark_generator()
    pangenome = synth.make_pangenome(random.Random("lz77:200kb"), genomes=8, length=25_000)
    text = b"$".join(seq for _, seq in pangenome.genomes)
    assert len(text) >= 200_000 and len(pangenome.genomes[0][1]) >= 25_000
    for side in (text, text[::-1]):
        parse = lz77_parse(side)
        assert reconstruct(parse) == side
        _assert_leftmost_maximal(parse, side)


def _planted(rng, block, source_residues, start_residue):
    """Random DNA holding ``block`` at sources of the given residues mod STEP,
    each followed by ``!``, then ``#`` and ``block`` + ``?`` at a phrase start
    of ``start_residue``.  ``#`` and ``?`` occur once, so the phrase starts
    right after ``#`` and copies exactly ``block``.  Returns (text, sources, start).
    """
    text = bytearray(random_dna(rng, 24))
    sources = []
    for residue in source_residues:
        text += random_dna(rng, 8 + (residue - len(text) - 8) % STEP)
        sources.append(len(text))
        text += block + b"!"
    text += random_dna(rng, 8 + (start_residue - len(text) - 9) % STEP) + b"#"
    start = len(text)
    text += block + b"?" + random_dna(rng, 8)
    return bytes(text), sources, start


def _phrase_at(parse, start):
    """(match length, source, literal) of the phrase at ``start``."""
    p = parse.boundary_positions.index(start)
    return parse.match_lens[p], parse.sources[p], parse.literals[p]


@pytest.mark.parametrize("length", [14, 15, 16])  # EXACT - 1, EXACT, EXACT + 1
def test_planted_match_at_every_residue(length):
    # One or two sources of a 14-, 15- or 16-byte block at every residue
    # mod STEP, copied at a phrase start of every residue.  A 14-byte match
    # from a source at 1 mod 4 holds no sampled gram, so only the fallback
    # finds it; from 15 bytes on, each source is proposed through exactly
    # one offset d, (-source) mod STEP.  Two sources tie, and the leftmost
    # must win even when its offset comes later, as for residues (1, 0).
    rng = random.Random(length)
    for start_residue in range(STEP):
        for first in range(STEP):
            for second in (None, *range(STEP)):
                residues = (first,) if second is None else (first, second)
                block = random_dna(rng, length)
                text, sources, start = _planted(rng, block, residues, start_residue)
                assert [s % STEP for s in sources] == list(residues)
                assert start % STEP == start_residue
                parse = _parses(text)
                assert _phrase_at(parse, start) == (length, sources[0], ord("?")), residues
                _assert_leftmost_maximal(parse, text)


def test_overlapping_source_fewer_than_step_bytes_back():
    # "%#" + "A" * 40, with "%" new: the phrase at "#" copies "#" +
    # "A" * (t - 1) from an earlier "#A...C", so the next phrase starts t
    # bytes into the run and its leftmost source is the run's start, whose
    # sampled gram may lie at or past the phrase start.  An earlier run of
    # 17 A's proposes a shorter match of EXACT bytes or more.
    for t in (1, 2, 3):
        for residue in range(STEP):
            rng = random.Random(f"overlap:{t}:{residue}")
            text = bytearray(random_dna(rng, 16) + b"#" + b"A" * (t - 1) + b"C")
            text += random_dna(rng, 8) + b"G" + b"A" * 17 + b"G" + random_dna(rng, 8)
            text += random_dna(rng, 8 + (residue - len(text) - 10) % STEP) + b"%#"
            run = len(text)
            text = bytes(text + b"A" * 40 + b"?")
            assert run % STEP == residue
            parse = _parses(text)
            assert _phrase_at(parse, run + t)[:2] == (40 - t, run), (t, residue)
            _assert_leftmost_maximal(parse, text)


class _FindWindows(bytes):
    """A text that records the ``(start, end)`` window of every ``find`` on it."""

    def find(self, sub, start, end):
        self.windows.append((start, end))
        return bytes.find(self, sub, start, end)


def _behind_a_frontier(head, block, filler, tail):
    """``head``, ``block`` at ``len(head)``, ``!``, ``filler``, ``#``, then
    ``head[:6]``, ``%``, ``&``, a copy of ``block``, ``G`` and ``tail``, where
    ``#%&`` are new to the text.  With ``RENT = 0`` the 6-byte phrase is
    charged, so the frontier moves to the phrase ``&``, which is charged
    nothing; the block's copy is found by the sampled step, so the phrase at
    ``tail`` is looked up with the frontier at ``&``.
    Returns (text, frontier, tail's start).
    """
    text = head + block + b"!" + filler + b"#" + head[:6] + b"%"
    frontier = len(text)
    text += b"&" + block + b"G"
    return _FindWindows(text + tail), frontier, len(text)


@pytest.mark.parametrize("case", ["runs past F", "longer at F or later", "tie"])
def test_short_gram_lookup_behind_the_frontier(case):
    # The block's bytes are distinct lowercase letters, so each of its grams
    # occurs only where the block is copied.
    for seed in range(5):
        rng = random.Random(f"frontier:{case}:{seed}")
        head = random_dna(rng, 24)
        block = bytes(rng.sample(b"abcdefghijklmnopqrstuvwxyz", 20))
        source = len(head)
        if case == "runs past F":
            # From the listed head[2:6] just before % and & into the block's
            # copy: the source lies below the frontier, its match past it.
            tail = head[2:6] + b"%&" + block[:3] + b"?"
        elif case == "longer at F or later":
            # The listed source holds block[-5:] then !; the block's copy
            # after & holds one byte more, G.
            tail = block[-5:] + b"G?"
        else:
            # block[-6:] is held by the listed source and by the copy after
            # &; the listed one lies further left and must win.
            tail = block[-6:] + b"?"
        text, frontier, start = _behind_a_frontier(head, block, random_dna(rng, 8), tail)
        length, expected_source, listed = {
            "runs past F": (9, frontier - 5, 9),
            "longer at F or later": (6, frontier + 16, 5),
            "tie": (6, source + 14, 6),
        }[case]
        text.windows = []
        with patch.object(lz77, "RENT", 0):
            parse = lz77_parse(text)
        assert _phrase_at(parse, start) == (length, expected_source, ord("?")), seed
        # The tail's finds start at the frontier, past its best listed match.
        assert (frontier, start + listed) in text.windows, seed
        _assert_leftmost_maximal(parse, bytes(text))
        assert parse == _parses(bytes(text))


def test_short_gram_listed_too_often_falls_back_to_the_whole_window():
    # A run of 60 A's, then AAAAA and a new byte, six times.  With RENT = 2
    # three charged phrases move the frontier to the fourth, at 79, where
    # AAAA is listed 63 times: 63 * RENT >= 79, so the lookup is not worth
    # it, and the finds start at 0.
    text = _FindWindows(b"A" * 60 + b"C" + b"".join(b"AAAAA" + bytes([c]) for c in b"BDEFHI"))
    text.windows = []
    with patch.object(lz77, "RENT", 2):
        parse = lz77_parse(text)
    starts = parse.boundary_positions[:-1]
    assert starts[:3] == (0, 1, 61) and len(starts) == 8
    for i in starts[5:]:
        assert (0, i) in text.windows and _phrase_at(parse, i)[:2] == (5, 0)
    _assert_leftmost_maximal(parse, bytes(text))
    assert parse == _parses(bytes(text))


def _most_proposals(text, i):
    """Most sources one offset d < STEP proposes at phrase start ``i``, by a scan."""
    return max(
        sum(
            text[p : p + GRAM] == text[i + d : i + d + GRAM]
            for p in range(0, i + d, STEP)
        )
        for d in range(STEP)
    )


def test_fallback_past_the_cap_on_unary_and_periodic_texts():
    rng = random.Random(12)
    for unit in (b"A", b"ACG"):
        text = bytearray(unit * (4000 // len(unit)))
        for _ in range(8):
            text[rng.randrange(len(text))] = ord("T")
        text = bytes(text)
        parse = _parses(text)
        assert reconstruct(parse) == text
        _assert_leftmost_maximal(parse, text)
        assert any(
            _most_proposals(text, start) > CAP
            for start in parse.boundary_positions[:-1]
            if len(text) - start >= EXACT
        ), unit


@st.composite
def _repeated_dna_blocks(draw):
    """Copies of one 32-64 byte DNA block, each shifted by 0-3 new bytes
    and with up to three substitutions, some joined by ``$``."""
    block = draw(st.lists(st.sampled_from(b"ACGT"), min_size=32, max_size=64))
    text = bytearray()
    for _ in range(draw(st.integers(2, 5))):
        copy = list(block)
        for pos, byte in draw(
            st.lists(st.tuples(st.integers(0, len(block) - 1), st.sampled_from(b"ACGT")), max_size=3)
        ):
            copy[pos] = byte
        text += bytes(draw(st.lists(st.sampled_from(b"ACGT$"), max_size=3))) + bytes(copy)
    return bytes(text)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    st.one_of(
        st.sampled_from([b"A", b"AC", b"AC$", b"\x00\xff", b"ACGT$\x00\xff"]).flatmap(
            lambda alphabet: st.lists(st.sampled_from(alphabet), min_size=1, max_size=300).map(bytes)
        ),
        _repeated_dna_blocks(),
    )
)
def test_parse_properties(text):
    parse = _parses(text)
    _assert_tiles(parse, text)
    assert reconstruct(parse) == text
    _assert_leftmost_maximal(parse, text)
