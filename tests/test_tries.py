"""Compact tries: blind descent, lazy verification, rank intervals."""
import random
from bisect import bisect_left

import pytest

from helpers import prefix_intervals, reference_trie, string_at, trie_shape
from phylokmer.engine import HEAD_CAP
from phylokmer.tries import build_trie

PREFIX_STRINGS = [b"", b"AGAT", b"AT", b"ATACAT", b"ATTACAT", b"CAT", b"TACAT", b"TTACAT"]
REV_SUFFIX_STRINGS = [b"A", b"AT", b"ATA", b"ATAGATTAG", b"C", b"G", b"GA", b"T", b"TTAG"]


def brute_interval(strings, pattern):
    ranks = [i + 1 for i, s in enumerate(strings) if s.startswith(pattern)]
    return (ranks[0], ranks[-1]) if ranks else None


def rank_interval(locus):
    """The closed 1-based rank interval of a locus' subtree."""
    return (locus.lo, locus.hi)


def descend_verified(trie, pattern):
    locus = trie.blind_descend(pattern)
    if locus is None:
        return None
    return trie.verify_locus(locus, pattern)


def test_root_locus_spans_everything():
    trie = build_trie(PREFIX_STRINGS)
    root = trie.root_locus()
    assert rank_interval(root) == (1, 8)
    assert root.matched_depth == 0
    assert not root.candidate


def test_fixture_prefix_trie_descents():
    trie = build_trie(PREFIX_STRINGS)
    assert rank_interval(descend_verified(trie, b"AGAT")) == (2, 2)
    assert rank_interval(descend_verified(trie, b"AT")) == (3, 5)
    assert descend_verified(trie, b"G") is None
    assert rank_interval(descend_verified(trie, b"")) == (1, 8)
    assert rank_interval(descend_verified(trie, b"TACAT")) == (7, 7)


def test_fixture_reversed_suffix_trie_descents():
    trie = build_trie(REV_SUFFIX_STRINGS)
    assert rank_interval(descend_verified(trie, b"G")) == (6, 7)
    assert descend_verified(trie, b"GAT") is None
    assert rank_interval(descend_verified(trie, b"ATAG")) == (4, 4)


def test_terminal_string_sorts_before_extensions():
    trie = build_trie([b"A", b"AB", b"ABC"])
    assert rank_interval(descend_verified(trie, b"A")) == (1, 3)
    assert rank_interval(descend_verified(trie, b"AB")) == (2, 3)
    assert rank_interval(descend_verified(trie, b"ABC")) == (3, 3)
    assert descend_verified(trie, b"ABCD") is None


def test_blind_descent_skips_need_verification():
    # Blind descent compares only edge-leading bytes, so a probe that is
    # wrong inside a skipped run still reaches a candidate locus.
    trie = build_trie(PREFIX_STRINGS)
    blind = trie.blind_descend(b"AGXT")
    assert blind is not None and blind.candidate
    assert rank_interval(blind) == (2, 2)
    assert trie.verify_locus(blind, b"AGXT") is None
    good = trie.verify_locus(trie.blind_descend(b"AGAT"), b"AGAT")
    assert rank_interval(good) == (2, 2)
    assert not good.candidate


def test_string_at_round_trip():
    trie = build_trie(PREFIX_STRINGS)
    for rank, s in enumerate(PREFIX_STRINGS, start=1):
        assert string_at(trie, rank) == s


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_trie([b"B", b"A"])
    with pytest.raises(ValueError):
        build_trie([b"A", b"A"])


def test_empty_trie():
    trie = build_trie([])
    assert trie.root_locus() is None
    assert trie.blind_descend(b"A") is None
    assert trie.blind_descend(b"") is None


def test_extension_loci_match_individual_descents():
    rng = random.Random(21)
    for _ in range(100):
        pool = {bytes(rng.choice(b"ACG") for _ in range(rng.randint(0, 10))) for _ in range(rng.randint(1, 25))}
        strings = sorted(pool)
        trie = build_trie(strings)
        pattern = bytes(rng.choice(b"ACG") for _ in range(rng.randint(0, 12)))
        loci = trie.loci_for_pattern_extensions(pattern, len(pattern))
        assert len(loci) == len(pattern) + 1
        for length in range(len(pattern) + 1):
            single = trie.blind_descend(pattern[:length])
            if loci[length] is None:
                assert single is None
            else:
                assert single is not None
                assert rank_interval(single) == rank_interval(loci[length])
                assert single.matched_depth == loci[length].matched_depth
        # Once dead, extensions of this same descent stay dead.
        seen_dead = False
        for locus in loci:
            if locus is None:
                seen_dead = True
            else:
                assert not seen_dead


def test_verified_descents_match_brute_force():
    rng = random.Random(22)
    for _ in range(150):
        pool = {bytes(rng.choice(b"AC") for _ in range(rng.randint(0, 8))) for _ in range(rng.randint(1, 20))}
        strings = sorted(pool)
        trie = build_trie(strings)
        for _ in range(20):
            if rng.random() < 0.5 and strings:
                base = rng.choice(strings)
                probe = bytearray(base[: rng.randint(0, len(base))])
                if probe and rng.random() < 0.4:
                    probe[rng.randrange(len(probe))] = rng.choice(b"ACG")
                probe = bytes(probe)
            else:
                probe = bytes(rng.choice(b"ACG") for _ in range(rng.randint(0, 6)))
            expected = brute_interval(strings, probe)
            got = descend_verified(trie, probe)
            if expected is None:
                assert got is None
            else:
                assert got is not None and rank_interval(got) == expected


def test_text_access_extraction_matches_inline_storage():
    # Same strings, but stored as (start, length) refs into a shared blob
    # instead of joined copies, so verification reads them from the blob.
    rng = random.Random(23)
    for _ in range(40):
        blob = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(10, 80)))
        refs = []
        pool = set()
        for _ in range(rng.randint(1, 12)):
            start = rng.randrange(len(blob))
            end = rng.randint(start, min(len(blob), start + 9))
            piece = blob[start:end]
            if piece not in pool:
                pool.add(piece)
                refs.append((start, end))
        order = sorted(range(len(refs)), key=lambda i: blob[refs[i][0] : refs[i][1]])
        strings = [blob[refs[i][0] : refs[i][1]] for i in order]
        spans = [(refs[i][0], refs[i][1] - refs[i][0]) for i in order]

        plain = build_trie(strings)
        via_refs = build_trie(text=blob, refs=spans)
        for _ in range(25):
            probe = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(0, 8)))
            a = descend_verified(plain, probe)
            b = descend_verified(via_refs, probe)
            if a is None:
                assert b is None
            else:
                assert b is not None and rank_interval(a) == rank_interval(b)


def _assert_intervals_match_verified_descents(trie, pattern):
    lo, hi = prefix_intervals(trie, pattern)
    assert len(lo) == len(hi) <= len(pattern) + 1
    for length in range(len(pattern) + 1):
        want = descend_verified(trie, pattern[:length])
        if want is None:
            assert length >= len(lo), (pattern, length)
        else:
            assert length < len(lo), (pattern, length)
            assert (lo[length], hi[length]) == rank_interval(want)


def test_prefix_intervals_match_descend_and_verify():
    rng = random.Random(24)
    for trial in range(300):
        if trial == 0:
            strings = []
        else:
            # Short strings over a small alphabet give many prefix pairs
            # (terminal marks) and one-string sets when the pool is small.
            pool = {
                bytes(rng.choice(b"ACG") for _ in range(rng.randint(0, 12)))
                for _ in range(rng.randint(1, 20))
            }
            strings = sorted(pool)
        trie = build_trie(strings)
        for _ in range(15):
            if strings and rng.random() < 0.7:
                # Extend a set string, then mismatch somewhere inside it, so
                # descents die mid-edge and every longer length must die too.
                tail = bytes(rng.choice(b"ACG") for _ in range(rng.randint(0, 3)))
                probe = bytearray(rng.choice(strings) + tail)
                if probe and rng.random() < 0.6:
                    probe[rng.randrange(len(probe))] = rng.choice(b"ACGT")
                probe = bytes(probe)
            else:
                probe = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(0, 10)))
            _assert_intervals_match_verified_descents(trie, probe)


def test_prefix_intervals_fixed_cases():
    assert prefix_intervals(build_trie([]), b"ACG") == ([], [])
    one = build_trie([b"GATTACA"])
    assert prefix_intervals(one, b"GATXACA") == ([1, 1, 1, 1], [1, 1, 1, 1])
    assert prefix_intervals(one, b"") == ([1], [1])
    nested = build_trie([b"A", b"AB", b"ABC"])
    assert prefix_intervals(nested, b"ABCD") == ([1, 1, 2, 3], [3, 3, 3, 3])
    # Mismatch deep inside the edge "TACAT" leading to "ATTACAT": lengths
    # from the mismatch on die even though the blind descent skips past it.
    trie = build_trie(PREFIX_STRINGS)
    lo, hi = prefix_intervals(trie, b"ATTACXT")
    assert list(zip(lo, hi)) == [(1, 8), (2, 5), (3, 5), (5, 5), (5, 5), (5, 5)]


def test_prefix_intervals_through_reversed_text_refs():
    # How the engine reads suffix-set strings: each reversed string is stored
    # as the (start, length) of one occurrence in the reversed text.
    rng = random.Random(25)
    for _ in range(60):
        text = bytes(rng.choice(b"ACG") for _ in range(rng.randint(1, 60)))
        where = {}
        for _ in range(rng.randint(1, 15)):
            end = rng.randint(0, len(text))
            length = rng.randint(0, min(end, 10))
            where.setdefault(text[end - length : end], (len(text) - end, length))
        suffixes = sorted(where)
        order = sorted(range(len(suffixes)), key=lambda r: suffixes[r][::-1])
        reversed_strings = [suffixes[r][::-1] for r in order]
        refs = [where[suffixes[r]] for r in order]
        via_text = build_trie(text=text[::-1], refs=refs)
        plain = build_trie(reversed_strings)
        for _ in range(15):
            end = rng.randint(0, len(text))
            probe = bytearray(text[max(0, end - 12) : end][::-1])
            if probe and rng.random() < 0.5:
                probe[rng.randrange(len(probe))] = rng.choice(b"ACGT")
            probe = bytes(probe)
            _assert_intervals_match_verified_descents(via_text, probe)
            assert prefix_intervals(via_text, probe) == prefix_intervals(plain, probe)


def _assert_descend_matches_verified_descents(trie, pattern):
    """Every length up to ``descend``'s verified length reads its interval off
    the chain; one byte longer fails verification unless it exceeds the pattern."""
    length, depths, nodes = trie.descend(pattern)
    assert nodes[0] is trie.root and depths == [node.depth for node in nodes]
    assert all(a < b for a, b in zip(depths, depths[1:]))
    assert -1 <= length <= len(pattern)
    for L in range(1, length + 1):
        want = descend_verified(trie, pattern[:L])
        node = nodes[bisect_left(depths, L)]
        assert want is not None and (node.lo, node.hi) == rank_interval(want), (pattern, L)
    if length < len(pattern):
        assert descend_verified(trie, pattern[: length + 1]) is None, (pattern, length)


def test_descend_fixed_cases():
    empty = build_trie([])
    assert empty.descend(b"ACG") == (-1, [0], [empty.root])
    one = build_trie([b"GATTACA"])
    length, depths, _ = one.descend(b"GATXACA")
    assert (length, depths) == (3, [0, 7])
    assert one.descend(b"")[0] == 0
    nested = build_trie([b"A", b"AB", b"ABC"])
    length, depths, nodes = nested.descend(b"ABCD")
    assert (length, depths) == (3, [0, 1, 2, 3])
    assert [(n.lo, n.hi) for n in nodes] == [(1, 3), (1, 3), (2, 3), (3, 3)]
    # Mismatch deep inside the edge "TACAT" leading to "ATTACAT": the walk
    # reaches depth 7 and the one verification cuts it back to 5.
    length, depths, _ = build_trie(PREFIX_STRINGS).descend(b"ATTACXT")
    assert (length, depths) == (5, [0, 1, 2, 7])
    for pattern in (b"ATTACXT", b"AGAT", b"AGATT", b"G", b"", b"TTACATA"):
        _assert_descend_matches_verified_descents(build_trie(PREFIX_STRINGS), pattern)


def test_descend_matches_descend_and_verify_with_both_extractors():
    rng = random.Random(26)
    for trial in range(200):
        text = bytes(rng.choice(b"ACG") for _ in range(rng.randint(1, 60)))
        where = {}
        # trial 0: empty set; small pools give one-string sets, short
        # strings over three letters give strings that prefix others.
        for _ in range(0 if trial == 0 else rng.randint(1, 15)):
            end = rng.randint(0, len(text))
            length = rng.randint(0, min(end, 12))
            where.setdefault(text[end - length : end], (len(text) - end, length))
        suffixes = sorted(where)
        order = sorted(range(len(suffixes)), key=lambda r: suffixes[r][::-1])
        reversed_strings = [suffixes[r][::-1] for r in order]
        refs = [where[suffixes[r]] for r in order]
        tries = (
            build_trie(reversed_strings),
            build_trie(text=text[::-1], refs=refs),
        )
        for _ in range(10):
            if reversed_strings and rng.random() < 0.7:
                # Extend a set string, then mismatch somewhere inside it, so
                # walks die or get cut mid-edge.
                tail = bytes(rng.choice(b"ACG") for _ in range(rng.randint(0, 3)))
                probe = bytearray(rng.choice(reversed_strings) + tail)
                if probe and rng.random() < 0.6:
                    probe[rng.randrange(len(probe))] = rng.choice(b"ACGT")
                probe = bytes(probe)
            else:
                probe = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(0, 10)))
            for trie in tries:
                _assert_descend_matches_verified_descents(trie, probe)
            assert tries[0].descend(probe)[:2] == tries[1].descend(probe)[:2]


def _random_sorted_set(rng, trial):
    """Sorted distinct strings: the empty string, chains of strings that
    prefix each other, and pairs whose LCPs run past 64 bytes."""
    pool = set()
    for _ in range(rng.randint(0, 12)):
        pool.add(bytes(rng.choice(b"AC") for _ in range(rng.randint(0, 6))))
    if trial % 3 == 0:
        pool.add(b"")
    if trial % 2:
        stem = bytes(rng.choice(b"ACGT") for _ in range(rng.choice([63, 64, 65, 128, 200])))
        for cut in sorted(rng.sample(range(len(stem) + 1), 4)):
            pool.add(stem[:cut])  # a chain of prefixes
            pool.add(stem[:cut] + bytes([rng.choice(b"\x00AZ\xff")]))
    return sorted(pool)


def test_trie_from_refs_matches_per_depth_reference():
    rng = random.Random(27)
    for trial in range(400):
        strings = _random_sorted_set(rng, trial)
        want = trie_shape(reference_trie(strings))
        assert trie_shape(build_trie(strings)) == want, strings
        # The same strings as refs scattered through one text, in any order.
        order = list(range(len(strings)))
        rng.shuffle(order)
        text = b""
        refs = [None] * len(strings)
        for r in order:
            text += bytes(rng.choice(b"ACGT") for _ in range(rng.randint(0, 3)))
            refs[r] = (len(text), len(strings[r]))
            text += strings[r]
        assert trie_shape(build_trie(text=text, refs=refs)) == want, strings


def test_build_from_refs_rejects_unsorted_or_duplicate_strings():
    rng = random.Random(28)
    bad_pairs = [(b"B", b"A"), (b"A", b"A"), (b"AB", b"A"), (b"A", b""), (b"", b"")]
    long = bytes(rng.choice(b"ACGT") for _ in range(150))
    bad_pairs += [(long + b"C", long + b"A"), (long, long), (long + b"A", long)]
    for a, b in bad_pairs:
        with pytest.raises(ValueError, match="sorted and deduplicated"):
            build_trie([a, b])
        with pytest.raises(ValueError, match="sorted and deduplicated"):
            build_trie(text=b + b"$" + a, refs=[(len(b) + 1, len(a)), (0, len(b))])
        if a != b:
            build_trie([b, a])  # the other order is fine


def test_heads_match_brute_force():
    # heads(h) is kept on the trie: a second call returns the same set.
    rng = random.Random(29)
    for trial in range(60):
        strings = _random_sorted_set(rng, trial)
        text, refs = b"", []
        for s in strings:
            refs.append((len(text), len(s)))
            text += s + b"$"
        trie = build_trie(text=text, refs=refs)
        for h in range(1, HEAD_CAP + 1):
            assert trie.heads(h) == {s[:h] for s in strings if len(s) >= h}, (strings, h)
            assert trie.heads(h) is trie.heads(h)
