"""Command line round trips driven through main()."""
import errno
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from helpers import FIXTURE_NEWICK, FIXTURE_NAMES
from phylokmer import cli, load_index
from phylokmer.cli import main
from phylokmer.store import FORMAT_VERSION, MAGIC

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def built(tmp_path):
    tree = tmp_path / "tree.nwk"
    tree.write_text(FIXTURE_NEWICK + "\n")
    fasta = tmp_path / "genomes.fa"
    fasta.write_text("".join(f">{name}\n{name}\n" for name in FIXTURE_NAMES))
    out = tmp_path / "fixture.idx"
    code = main(["build", "--tree", str(tree), "--genomes", str(fasta), "--out", str(out)])
    assert code == 0
    return out


def test_build_summary(built, capsys, tmp_path):
    # The fixture above already ran the build; re-run to capture its output.
    tree = tmp_path / "tree.nwk"
    fasta = tmp_path / "genomes.fa"
    out = tmp_path / "again.idx"
    code = main(["build", "--tree", str(tree), "--genomes", str(fasta), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "genomes: 5  vertices: 9  text: 44 bytes" in captured.out
    assert "forward: phrases=12 suffixes=9 prefixes=8 grid_points=10" in captured.out
    assert "reverse: phrases=10" in captured.out
    assert f"wrote {out} (161 bytes)" in captured.out
    assert out.exists()


def test_query_pattern_rows(built, capsys):
    code = main(["query", "--index", str(built), "--pattern", "TAGACA", "-k", "3"])
    captured = capsys.readouterr()
    assert code == 0
    rows = [line.split("\t") for line in captured.out.splitlines()]
    assert rows == [
        ["pattern", "1", "TAG", "8", ""],
        ["pattern", "2", "AGA", "6", ""],
        ["pattern", "3", "GAC", "NULL", ""],
        ["pattern", "4", "ACA", "2", ""],
    ]


def test_query_pattern_is_uppercased(built, capsys):
    code = main(["query", "--index", str(built), "--pattern", "tagaca", "-k", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "TAG\t8" in captured.out


def test_query_reads(built, capsys, tmp_path):
    reads = tmp_path / "reads.fq"
    reads.write_text(
        "@r1 some description\nTAGA\n+\nIIII\n"
        "@r2\nGAC\n+\nIII\n"
    )
    code = main(["query", "--index", str(built), "--reads", str(reads), "-k", "3"])
    captured = capsys.readouterr()
    assert code == 0
    rows = [line.split("\t") for line in captured.out.splitlines()]
    assert rows == [
        ["r1", "1", "TAG", "8", ""],
        ["r1", "2", "AGA", "6", ""],
        ["r2", "1", "GAC", "NULL", ""],
    ]


def test_query_tsv_file(built, tmp_path, capsys):
    tsv = tmp_path / "rows.tsv"
    code = main(
        ["query", "--index", str(built), "--pattern", "TAGACA", "-k", "3", "--tsv", str(tsv)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert tsv.read_text().count("\n") == 4


def test_query_k_longer_than_read_warns(built, capsys):
    code = main(["query", "--index", str(built), "--pattern", "TAG", "-k", "9"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert "k=9 exceeds" in captured.err


def test_query_k_zero_rejected(built, capsys):
    code = main(["query", "--index", str(built), "--pattern", "TAG", "-k", "0"])
    assert code == 2
    assert "-k must be at least 1" in capsys.readouterr().err


def test_query_sentinel_pattern_rejected(built, capsys):
    code = main(["query", "--index", str(built), "--pattern", "TA$G", "-k", "2"])
    assert code == 1
    assert "sentinel" in capsys.readouterr().err


def test_query_skips_sentinel_reads(built, capsys, tmp_path):
    reads = tmp_path / "reads.fq"
    reads.write_text("@bad\nTA$A\n+\nIIII\n@good\nTAG\n+\nIII\n")
    code = main(["query", "--index", str(built), "--reads", str(reads), "-k", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "skipped" in captured.err
    assert captured.out.splitlines() == ["good\t1\tTAG\t8\t"]


def test_build_reports_missing_genome(tmp_path, capsys):
    tree = tmp_path / "tree.nwk"
    tree.write_text("(A,B);\n")
    fasta = tmp_path / "genomes.fa"
    fasta.write_text(">A\nACGT\n")
    code = main(["build", "--tree", str(tree), "--genomes", str(fasta), "--out", str(tmp_path / "x.idx")])
    assert code == 1
    assert "B" in capsys.readouterr().err


def test_build_rejects_multibyte_sentinel(tmp_path, capsys):
    code = main(
        ["build", "--tree", "t", "--genomes", "g", "--out", "o", "--sentinel", "$$"]
    )
    assert code == 2
    assert "single character" in capsys.readouterr().err


def test_build_with_custom_sentinel(tmp_path, capsys):
    tree = tmp_path / "tree.nwk"
    tree.write_text("(A,B);\n")
    fasta = tmp_path / "genomes.fa"
    fasta.write_text(">A\nAC$T\n>B\nACGT\n")
    out = tmp_path / "custom.idx"
    code = main(
        ["build", "--tree", str(tree), "--genomes", str(fasta), "--out", str(out),
         "--sentinel", "#"]
    )
    assert code == 0
    capsys.readouterr()
    # '$' is ordinary data now and must be queryable.
    code = main(["query", "--index", str(out), "--pattern", "C$T", "-k", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0].split("\t")[3] == "1"


def test_query_rejects_damaged_index(tmp_path, capsys):
    bogus = tmp_path / "bogus.idx"
    bogus.write_bytes(b"garbage")
    code = main(["query", "--index", str(bogus), "--pattern", "TAG", "-k", "3"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_query_rejects_bit_flipped_index_in_one_line(built, capsys):
    data = bytearray(built.read_bytes())
    data[-8] ^= 0x02  # low byte of the last reverse phrase's source + 1
    built.write_bytes(data)
    code = main(["query", "--index", str(built), "--pattern", "GATTACATAGATACAT", "-k", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "checksum" in captured.err


def test_query_malformed_fastq(built, capsys, tmp_path):
    reads = tmp_path / "bad.fq"
    reads.write_text("not a fastq header\nACGT\n+\nIIII\n")
    code = main(["query", "--index", str(built), "--reads", str(reads), "-k", "2"])
    assert code == 1
    assert "expected '@' header" in capsys.readouterr().err


def test_query_unwritable_tsv_is_one_line_error(built, capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "rows.tsv"
    code = main(
        ["query", "--index", str(built), "--pattern", "TAG", "-k", "3", "--tsv", str(target)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(target) in captured.err


def test_query_non_latin1_pattern_is_one_line_error(built, capsys):
    code = main(["query", "--index", str(built), "--pattern", "GATΩ", "-k", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "latin-1" in captured.err


def _assert_one_line_error(code, capsys, expected):
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert expected in captured.err


def test_build_non_latin1_sentinel_is_one_line_error(tmp_path, capsys):
    code = main(["build", "--tree", "t", "--genomes", "g", "--out", "o", "--sentinel", "€"])
    _assert_one_line_error(code, capsys, "latin-1")


def test_build_non_utf8_tree_is_one_line_error(tmp_path, capsys):
    tree = tmp_path / "tree.nwk"
    tree.write_bytes(b"(A\xff,B);\n")
    fasta = tmp_path / "genomes.fa"
    fasta.write_text(">A\nACGT\n>B\nACGA\n")
    out = tmp_path / "x.idx"
    code = main(["build", "--tree", str(tree), "--genomes", str(fasta), "--out", str(out)])
    _assert_one_line_error(code, capsys, str(tree))


def test_build_too_long_label_is_one_line_error(tmp_path, capsys):
    label = "A" * 70_000
    tree = tmp_path / "tree.nwk"
    tree.write_text(f"({label},B);\n")
    fasta = tmp_path / "genomes.fa"
    fasta.write_text(f">{label}\nACGT\n>B\nACGA\n")
    out = tmp_path / "x.idx"
    code = main(["build", "--tree", str(tree), "--genomes", str(fasta), "--out", str(out)])
    _assert_one_line_error(code, capsys, "label too long")
    assert not out.exists()


def _query_args(index, source, tmp_path):
    if source == "pattern":
        return ["query", "--index", str(index), "--pattern", "TAGACA", "-k", "3"]
    reads = tmp_path / "reads.fq"
    reads.write_text("@r1\nTAGA\n+\nIIII\n@r2\nGACA\n+\nIIII\n")
    return ["query", "--index", str(index), "--reads", str(reads), "-k", "3"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("source", ["pattern", "reads"])
def test_query_tsv_on_full_device_is_one_line_error(built, capsys, tmp_path, source):
    code = main(_query_args(built, source, tmp_path) + ["--tsv", "/dev/full"])
    _assert_one_line_error(code, capsys, f"[Errno {errno.ENOSPC}]")


class _ClosedPipe:
    """A stdout whose reader has gone away; ``fileno`` is a file of the test's."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self._fd


@pytest.mark.parametrize("source", ["pattern", "reads"])
def test_query_broken_pipe_is_one_line_error(built, capsys, tmp_path, monkeypatch, source):
    sink = tmp_path / "stdout"
    with open(sink, "wb") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        code = main(_query_args(built, source, tmp_path))
        # What the interpreter's flush at exit would write now goes to devnull.
        os.write(fh.fileno(), b"rows")
    _assert_one_line_error(code, capsys, "Broken pipe")
    assert sink.read_bytes() == b""


def test_bytes_outside_a_to_z_are_kept(tmp_path, capsys):
    # As text, 0xDF (ß) uppercases to "SS" and 0xFF (ÿ) to U+0178, which
    # latin-1 cannot encode; as bytes only a-z change.
    tree = tmp_path / "tree.nwk"
    tree.write_text("(A,B);\n")
    fasta = tmp_path / "genomes.fa"
    fasta.write_bytes(b">A\nac\xdfgt\xffa\n>B\nACGTA\n")
    out = tmp_path / "x.idx"
    code = main(["build", "--tree", str(tree), "--genomes", str(fasta), "--out", str(out)])
    assert code == 0
    assert "text: 13 bytes" in capsys.readouterr().out
    assert load_index(out).forward.text == b"AC\xdfGT\xffA$ACGTA"
    code = main(["query", "--index", str(out), "--pattern", "c\xdfg", "-k", "3"])
    assert code == 0
    assert capsys.readouterr().out == "pattern\t1\tC\xdfG\t1\tA\n"
    reads = tmp_path / "reads.fq"
    reads.write_bytes(b"@r\nt\xffa\n+\nIII\n")
    code = main(["query", "--index", str(out), "--reads", str(reads), "-k", "3"])
    assert code == 0
    assert capsys.readouterr().out == "r\t1\tT\xffA\t1\tA\n"


def _unary_index_file(path, n):
    """A valid file for one genome of ``n`` A's: per side, a literal A, then
    one phrase copying n - 1 bytes from position 0.  Each column is a width
    byte and its values; the match lengths take the fewest bytes that hold
    n - 1, the other columns one byte."""
    w = max(1, ((n - 1).bit_length() + 7) // 8)
    lengths = bytes([w]) + (0).to_bytes(w, "little") + (n - 1).to_bytes(w, "little")
    payload = MAGIC + struct.pack("<HB", FORMAT_VERSION, ord("$"))
    payload += struct.pack("<I", 1) + b"\x01\x00\x01\x01G"  # one vertex: the root leaf G
    payload += struct.pack("<I", n)
    payload += struct.pack("<I", 2) + lengths + b"\x01\x00\x01" + b"\x01A\x00"
    payload += struct.pack("<I", 2) + lengths + b"\x01\x00\x01"
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource.setrlimit")
def test_query_out_of_memory_is_one_line_error(tmp_path):
    small = tmp_path / "small.idx"
    _unary_index_file(small, 1000)
    assert small.stat().st_size == 55
    assert load_index(small).forward.text == b"A" * 1000
    huge = tmp_path / "huge.idx"
    _unary_index_file(huge, (1 << 32) - 1)

    def limit_address_space():  # in the child only
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "phylokmer.cli", "query", "--index", str(huge), "--pattern", "AAA", "-k", "3"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=limit_address_space,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {huge}: out of memory while loading the index\n"


@pytest.mark.parametrize("step", ["build_index", "save_index"])
def test_build_out_of_memory_is_one_line_error(step, tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise MemoryError

    monkeypatch.setattr(cli, step, fail)
    tree = tmp_path / "tree.nwk"
    tree.write_text("(A,B);\n")
    fasta = tmp_path / "genomes.fa"
    fasta.write_text(">A\nACGT\n>B\nACGA\n")
    out = tmp_path / "x.idx"
    code = main(["build", "--tree", str(tree), "--genomes", str(fasta), "--out", str(out)])
    _assert_one_line_error(code, capsys, "out of memory")
    assert code == 1
