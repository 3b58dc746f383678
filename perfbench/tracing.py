"""In-memory spans around the program's layer entry points.

``Tracer.installed(pk)`` replaces each traced function or method where its
callers look it up (for example ``phylokmer.engine.build_trie`` and
``phylokmer.store.build_trie``) with a wrapper that records a span, and
restores the originals on exit.  A span is (name, start, end, parent,
operation id); an operation is one top-level call made by the benchmark,
and every span it causes carries its id.  Spans live in flat arrays until
``write_tsv`` dumps them, gzipped, at the end of a run.
"""
from __future__ import annotations

import contextlib
import gzip
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._open: list[int] = []
        self._ops = 0
        self.counts: Counter[str] = Counter()
        self.captured_context_args: list[tuple] = []

    def _intern(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` recording one span per call; ``on_result(result, args)``
        runs after the span closes, so its cost is not charged to ``name``."""
        nid = self._intern(name)
        clock = time.perf_counter
        open_spans = self._open

        def traced(*args, **kwargs):
            idx = len(self.start)
            if open_spans:
                parent = open_spans[-1]
            else:
                parent = -1
                self._ops += 1
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self._ops)
            self.end.append(0.0)
            open_spans.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                open_spans.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, pk):
        """Wrap the layer entry points of package ``pk`` for the block."""
        from phylokmer import contexts, engine, grid, lca, lz77, store, tries

        def hit(counter):
            def record(result, _args):
                self.counts[counter] += result is not None
            return record

        def keep_context_args(result, args):
            self.captured_context_args.append(args)
            self.counts["contexts.prefix_bytes"] += sum(len(c.prefix) for c in result[2])

        plan = [
            # (owner, attribute, span name, on_result)
            (pk, "parse_newick", "model.parse_newick", None),
            (pk, "parse_fasta", "model.parse_fasta", None),
            (engine, "build_concatenation", "model.build_concatenation", None),
            (engine, "reverse_concatenation", "model.reverse_concatenation", None),
            (pk, "build_index", "engine.build_index", None),
            (lz77, "lz77_parse", "lz77.lz77_parse", None),
            (contexts, "build_context_sets", "contexts.build_context_sets", keep_context_args),
            (contexts, "grid_points", "contexts.grid_points", None),
            (engine, "build_trie", "tries.build_trie", None),
            (store, "build_trie", "tries.build_trie", None),
            (engine, "ContextGrid", "grid.ContextGrid", None),
            (store, "ContextGrid", "grid.ContextGrid", None),
            (engine, "build_lca", "lca.build_lca", None),
            (store, "build_lca", "lca.build_lca", None),
            (tries.CompactTrie, "loci_for_pattern_extensions", "tries.loci_for_pattern_extensions", None),
            (tries.CompactTrie, "verify_locus", "tries.verify_locus", hit("tries.verify_hits")),
            (grid.ContextGrid, "range_best", "grid.range_best", hit("grid.range_hits")),
            (lca.LcaStructure, "query", "lca.query", None),
            (pk, "save_index", "store.save_index", None),
            (pk, "load_index", "store.load_index", None),
            (pk, "classify_with_stats", "engine.classify_with_stats", None),
        ]
        saved = []
        try:
            for owner, attr, name, on_result in plan:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, on_result))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def mark(self) -> int:
        """Position in the span log; pass two marks to ``self_times``."""
        return len(self.start)

    def self_times(self, lo: int, hi: int) -> tuple[dict[str, float], Counter[str]]:
        """Self seconds and call count per span name over spans [lo, hi).

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child = defaultdict(float)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p] += self.end[i] - self.start[i]
        own: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            own[name] += self.end[i] - self.start[i] - child.get(i, 0.0)
            calls[name] += 1
        return own, calls

    def write_tsv(self, path) -> None:
        """All spans as gzipped TSV; times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as out:
            out.write("span\top\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.op[i]}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                )
