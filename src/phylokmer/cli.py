"""Command line interface: build an index, then query it with patterns or reads.

``phylokmer build`` ingests a Newick tree and a FASTA file of leaf genomes
and writes the binary index.  ``phylokmer query`` classifies every k-mer of
a pattern or of each FASTQ read, with k chosen per invocation, and emits
one TSV row per k-mer: read id, 1-based position, k-mer, vertex number (or
NULL), vertex label (empty when the vertex has none).
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import IO, Iterator

from .engine import KmerIndex, build_index, classify
from .model import FastaError, NewickError, parse_fasta, parse_newick
from .store import IndexFileError, load_index, save_index


def _read_fastq(stream: IO[str], path: str) -> Iterator[tuple[str, bytes]]:
    """Yield (read id, sequence) from a four-line-record FASTQ stream."""
    while True:
        header = stream.readline()
        if not header:
            return
        header = header.rstrip("\n")
        if not header.strip():
            continue
        if not header.startswith("@"):
            raise ValueError(f"{path}: expected '@' header, got {header[:30]!r}")
        seq = stream.readline().rstrip("\n")
        plus = stream.readline()
        qual = stream.readline()
        if not qual:
            raise ValueError(f"{path}: truncated FASTQ record {header[:30]!r}")
        if not plus.startswith("+"):
            raise ValueError(f"{path}: malformed FASTQ record {header[:30]!r}")
        name = header[1:].split()[0] if header[1:].split() else ""
        if not name:
            raise ValueError(f"{path}: FASTQ record with empty id")
        yield name, seq.encode("latin-1").upper()


def cmd_build(args: argparse.Namespace) -> int:
    try:
        sentinel = args.sentinel.encode("latin-1")
    except UnicodeEncodeError:
        sentinel = b""
    if len(sentinel) != 1:
        print("error: --sentinel must be a single character, one byte in latin-1", file=sys.stderr)
        return 2
    try:
        with open(args.tree, "r", encoding="utf-8") as fh:
            tree = parse_newick(fh)
    except (OSError, NewickError, UnicodeDecodeError) as exc:
        print(f"error: {args.tree}: {exc}", file=sys.stderr)
        return 1
    try:
        with open(args.genomes, "r", encoding="latin-1") as fh:
            genomes = parse_fasta(fh, sentinel)
    except (OSError, FastaError) as exc:
        print(f"error: {args.genomes}: {exc}", file=sys.stderr)
        return 1
    try:
        index = build_index(tree, genomes, sentinel)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # it carries no message
        print("error: out of memory while building the index", file=sys.stderr)
        return 1
    try:
        save_index(index, args.out)
    except (OSError, ValueError) as exc:  # ValueError: a label or text too long for the file
        print(f"error: {args.out}: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: {args.out}: out of memory while saving the index", file=sys.stderr)
        return 1

    fwd, rev = index.forward, index.reverse
    print(f"genomes: {len(tree.leaves)}  vertices: {tree.vertex_count}  text: {len(fwd.text)} bytes")
    print(
        f"forward: phrases={fwd.parse.z} suffixes={len(fwd.suffix_refs)} "
        f"prefixes={len(fwd.prefix_refs)} grid_points={len(fwd.grid.points)}"
    )
    print(
        f"reverse: phrases={rev.parse.z} suffixes={len(rev.suffix_refs)} "
        f"prefixes={len(rev.prefix_refs)} grid_points={len(rev.grid.points)}"
    )
    print(f"wrote {args.out} ({os.path.getsize(args.out)} bytes)")
    return 0


def _emit_rows(index: KmerIndex, read_id: str, sequence: bytes, k: int, out: IO[str]) -> None:
    if k > len(sequence):
        print(
            f"warning: k={k} exceeds length of {read_id!r} ({len(sequence)}); no rows",
            file=sys.stderr,
        )
        return
    for res in classify(index, sequence, k):
        vertex = "NULL" if res.answer is None else str(res.answer)
        label = "" if res.answer is None else (index.tree.labels[res.answer] or "")
        kmer = res.kmer.decode("latin-1")
        out.write(f"{read_id}\t{res.position}\t{kmer}\t{vertex}\t{label}\n")


def cmd_query(args: argparse.Namespace) -> int:
    if args.pattern is not None:
        try:
            pattern = args.pattern.encode("latin-1").upper()
        except UnicodeEncodeError as exc:
            bad = exc.object[exc.start]
            print(f"error: --pattern: {bad!r} is not a latin-1 character", file=sys.stderr)
            return 1
    try:
        index = load_index(args.index)
    except (OSError, IndexFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # a valid file may declare a text too long for this machine
        print(f"error: {args.index}: out of memory while loading the index", file=sys.stderr)
        return 1

    sentinel = bytes([index.sentinel])
    out = sys.stdout
    try:
        if args.tsv:
            out = open(args.tsv, "w", encoding="utf-8")
        if args.pattern is not None:
            if sentinel in pattern:
                print("error: pattern contains the sentinel byte", file=sys.stderr)
                return 1
            _emit_rows(index, "pattern", pattern, args.k, out)
        else:
            with open(args.reads, "r", encoding="latin-1") as fh:
                for read_id, seq in _read_fastq(fh, args.reads):
                    if sentinel in seq:
                        print(
                            f"warning: read {read_id!r} contains the sentinel byte; skipped",
                            file=sys.stderr,
                        )
                        continue
                    _emit_rows(index, read_id, seq, args.k, out)
        out.flush()  # so that a failed write is reported here, not at exit
    except (OSError, ValueError) as exc:
        if isinstance(exc, BrokenPipeError) and out is sys.stdout:
            # the interpreter flushes stdout again at exit: send that to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if out is not sys.stdout:
            with contextlib.suppress(OSError):  # a failed write was reported above
                out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phylokmer",
        description="Map pattern k-mers to the smallest subtree of a phylogeny "
        "whose genomes contain them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an index from a tree and genomes")
    p_build.add_argument("--tree", required=True, help="Newick file; leaf labels name genomes")
    p_build.add_argument("--genomes", required=True, help="FASTA file, one record per leaf")
    p_build.add_argument("--out", required=True, help="output index path")
    p_build.add_argument(
        "--sentinel", default="$", help="separator byte, must occur in no genome (default '$')"
    )
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="classify k-mers of a pattern or of FASTQ reads")
    p_query.add_argument("--index", required=True, help="index file from 'build'")
    src = p_query.add_mutually_exclusive_group(required=True)
    src.add_argument("--pattern", help="single query string")
    src.add_argument("--reads", help="FASTQ file of reads")
    p_query.add_argument("-k", type=int, required=True, help="k-mer length for this query")
    p_query.add_argument("--tsv", help="write rows to this file instead of stdout")
    p_query.set_defaults(func=cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "query" and args.k < 1:
        print("error: -k must be at least 1", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
