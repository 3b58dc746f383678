#!/usr/bin/env python3
"""Benchmark for phylokmer: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of ``build``, ``reads_k31``, ``reads_k63_novel``, or ``all``
(every workload in turn, each in its own process).  Inputs -- a Newick
tree, a FASTA file and 150 bp reads -- are generated from the workload
name and the seed (see ``synth.py``); the program sees only those files and
reads.  The program is imported from ``src/`` of the checkout holding this
directory; without it the run exits non-zero before printing a result.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` repeats one
fixed unit of work (parse, build, save, load, classify the first reads),
alternately plain and with spans around every layer entry point (see
``tracing.py``), and reports per-layer self times and counts plus the
tracing overhead.  Every answer is checked against ``naive_classify``
outside the timed regions.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 1 when any operation failed.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import synth  # noqa: E402  (sibling module; HERE is on sys.path)
from tracing import Tracer  # noqa: E402

READ_LEN = 150
ERROR_RATE = 0.01
READ_POOL = 3000  # reads per read workload; a pass cycles through them
PASSES = 8  # read workloads: passes over the same reads, one set-up before each
MIN_PASS_READS = 100  # so that at least 10 reads lie beyond p90
BUILD_SAMPLE_READS = 100  # build: reads classified with every index it loads
STORE_REPS = 2  # build: save + load repeats per operation
SAMPLE_PASSES = 4  # build: passes over the read sample per operation

# Timing on a shared host: the same pure-Python loop runs up to 1.8x
# slower for tens of seconds at a time, longer than a run.  So every timed
# call is bracketed by a fixed probe of pure-Python work, and its time is
# scaled by PROBE_REF_S / (mean of the two probe times): times read as on
# the reference host unloaded.  Repeats are then aggregated by median.
PROBE_REF_S = 0.00035  # fastest probe() time on the reference host (2 cores, Python 3.11.7)


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work: the host's speed now."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc ^= i * 7
    return perf_counter() - t0


def timed(fn, *args):
    """``fn(*args)`` and its wall time scaled to the reference host speed.

    Like ``timeit``, the cyclic garbage collector is off during the call:
    its full collections land on whichever calls cross a threshold, the
    same calls on every pass, and would decide ``read_ms_p90``.  Callers
    collect between timed stretches instead.
    """
    before = probe()
    gc.disable()
    try:
        t0 = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - t0
    finally:
        gc.enable()
    return result, elapsed * 2 * PROBE_REF_S / (before + probe())


@dataclass(frozen=True)
class Workload:
    genomes: int
    genome_len: int
    k: int
    novel_share: float
    trace_reads: int  # reads classified in each traced unit of work


# Why each workload exists: BENCHMARK.json and README.md.
WORKLOADS = {
    "build": Workload(genomes=6, genome_len=12_000, k=31, novel_share=0.0, trace_reads=10),
    "reads_k31": Workload(genomes=16, genome_len=2_500, k=31, novel_share=0.0, trace_reads=20),
    "reads_k63_novel": Workload(genomes=48, genome_len=1_000, k=63, novel_share=0.5,
                                trace_reads=20),
}


@dataclass(frozen=True)
class Inputs:
    tree_path: Path
    fasta_path: Path
    index_path: Path
    reads: list[bytes]
    novel_reads: int


def load_program():
    """Import phylokmer from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import phylokmer
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import phylokmer from {src}: {exc}")
    if Path(phylokmer.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: imported phylokmer from {phylokmer.__file__}, not from {src}")
    return phylokmer


def make_inputs(name: str, wl: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's tree and genomes into ``workdir``; return them with the reads."""
    rng = random.Random(f"{name}:{seed}")
    pangenome = synth.make_pangenome(rng, wl.genomes, wl.genome_len)
    pool = BUILD_SAMPLE_READS if name == "build" else READ_POOL
    reads = synth.make_reads(rng, pangenome, pool, READ_LEN, ERROR_RATE, wl.novel_share)
    tree_path = workdir / "tree.nwk"
    fasta_path = workdir / "genomes.fa"
    tree_path.write_text(pangenome.newick + "\n", encoding="ascii")
    fasta_path.write_text(pangenome.fasta(), encoding="ascii")
    return Inputs(tree_path, fasta_path, workdir / "index.pkm", reads, round(pool * wl.novel_share))


def parse_inputs(pk, tree_path, fasta_path):
    """Read the tree and genomes back through the program's parsers."""
    with open(tree_path, encoding="utf-8") as fh:
        tree = pk.parse_newick(fh)
    with open(fasta_path, encoding="latin-1") as fh:
        genomes = pk.parse_fasta(fh)
    return tree, genomes


def digest(results) -> int:
    """Fingerprint of one classify answer; compared within this process only."""
    return hash(tuple((r.position, r.kmer, r.answer) for r in results))


class Oracle:
    """naive_classify answers per read, computed once and compared by digest."""

    def __init__(self, pk, tree, genomes, reads, k):
        self._args = (pk, tree, genomes, reads, k)
        self._digests: dict[int, int] = {}

    def mismatches(self, got) -> int:
        """Count (read number, digest) pairs that disagree with the oracle."""
        pk, tree, genomes, reads, k = self._args
        bad = 0
        for j, d in got:
            want = self._digests.get(j)
            if want is None:
                want = self._digests[j] = digest(pk.naive_classify(tree, genomes, reads[j], k))
            if d != want:
                bad += 1
                print(f"mismatch: read {j} differs from naive_classify", file=sys.stderr)
        return bad


def classify_pass(pk, index, reads, k, count=None, seconds=None):
    """Classify reads[0], reads[1], ... (cycling) in a closed loop.

    Runs ``count`` calls, or as many as start within ``seconds`` of wall
    time but at least MIN_PASS_READS.  Only the classify calls are timed.
    Returns one scaled latency per call (None where it raised), the k-mer
    count and (read number, digest) pairs.
    """
    latencies: list[float | None] = []
    got: list[tuple[int, int]] = []
    kmers = 0
    start = perf_counter()
    while (len(latencies) < count if count is not None else
           len(latencies) < MIN_PASS_READS or perf_counter() - start < seconds):
        j = len(latencies) % len(reads)
        try:
            (results, _), latency = timed(pk.classify_with_stats, index, reads[j], k)
        except Exception:
            traceback.print_exc()
            latencies.append(None)
            continue
        latencies.append(latency)
        kmers += len(results)
        got.append((j, digest(results)))
    return latencies, kmers, got


def read_metrics(passes, kmers) -> tuple[dict[str, float], int]:
    """Throughput and latency percentiles over each read's median pass."""
    per_read = [statistics.median(t for t in ts if t is not None)
                for ts in zip(*passes) if any(t is not None for t in ts)]
    return {
        "kmers_per_s": kmers / sum(per_read),
        "read_ms_p50": statistics.median(per_read) * 1e3,
        "read_ms_p90": statistics.quantiles(per_read, n=10)[8] * 1e3,
    }, len(per_read)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def index_properties(index, inp: Inputs) -> dict:
    return {
        "text_bytes": len(index.forward.text),
        "z_forward": index.forward.parse.z,
        "z_reverse": index.reverse.parse.z,
        "genomes": len(index.tree.leaves),
        "novel_reads": f"{inp.novel_reads}/{len(inp.reads)}",
    }


def run_build(pk, wl: Workload, inp: Inputs, seconds: float):
    """Closed loop of parse -> build_index -> (save_index -> load_index) x STORE_REPS.

    Each operation ends with SAMPLE_PASSES passes classifying the read
    sample with the index last loaded; a set-up (parsing the input files)
    precedes it.
    """
    tree, genomes = parse_inputs(pk, inp.tree_path, inp.fasta_path)
    oracle = Oracle(pk, tree, genomes, inp.reads, wl.k)
    setup, build_s, save_s, load_s, passes = [], [], [], [], []
    attempted = failed = 0
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < seconds:
        attempted += 1
        try:
            setup.append(timed(parse_inputs, pk, inp.tree_path, inp.fasta_path)[1])
            tree, genomes = parse_inputs(pk, inp.tree_path, inp.fasta_path)
            loaded = index = None
            gc.collect()
            index, took = timed(pk.build_index, tree, genomes)
            build_s.append(took)
            for _ in range(STORE_REPS):
                loaded = None
                gc.collect()
                save_s.append(timed(pk.save_index, index, str(inp.index_path))[1])
                loaded, took = timed(pk.load_index, str(inp.index_path))
                load_s.append(took)
            index = None
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        for _ in range(SAMPLE_PASSES):
            gc.collect()
            latencies, kmers, got = classify_pass(pk, loaded, inp.reads, wl.k,
                                                  count=len(inp.reads))
            passes.append(latencies)
            attempted += len(latencies)
            failed += latencies.count(None) + oracle.mismatches(got)
    rss = peak_rss_mb()
    timing, reads = read_metrics(passes, kmers)
    metrics = {
        "setup_s": statistics.median(setup),
        "build_s": statistics.median(build_s),
        "save_s": statistics.median(save_s),
        "load_s": statistics.median(load_s),
        "index_bytes": os.path.getsize(inp.index_path),
        "peak_rss_mb": rss,
        **timing,
    }
    samples = {"setups": len(setup), "build_ops": len(build_s), "timed_reads": reads,
               "passes": len(passes)}
    return metrics, attempted, failed, index_properties(loaded, inp), samples


def build_in_child(inp: Inputs) -> dict:
    """Parse, build and save once in a child process; return its timings."""
    child = subprocess.run(
        [sys.executable, str(HERE / "build_child.py"), str(inp.tree_path),
         str(inp.fasta_path), str(inp.index_path)],
        capture_output=True, text=True, timeout=150,
    )
    if child.returncode != 0:
        sys.exit(f"perfbench: index build failed:\n{child.stderr}")
    return json.loads(child.stdout)


def run_reads(pk, wl: Workload, inp: Inputs, seconds: float):
    """Set up a queryable index, then classify reads in a closed loop.

    Build and save run in a child process (``build_child.py``), so this
    process, like ``phylokmer query``, only ever loads the index and its
    peak RSS is the loaded index's, not the build's.  Each of the PASSES
    passes follows a fresh set-up; the first pass lasts ``seconds /
    PASSES`` and the others classify the same reads again.
    """
    tree, genomes = parse_inputs(pk, inp.tree_path, inp.fasta_path)
    oracle = Oracle(pk, tree, genomes, inp.reads, wl.k)
    setups, passes = [], []
    attempted = failed = 0
    index = None
    for p in range(PASSES):
        rep = build_in_child(inp)
        index = None
        gc.collect()
        index, rep["load_s"] = timed(pk.load_index, str(inp.index_path))
        setups.append(rep)
        gc.collect()
        if p == 0:
            latencies, kmers, got = classify_pass(pk, index, inp.reads, wl.k,
                                                  seconds=seconds / PASSES)
        else:
            latencies, _, got = classify_pass(pk, index, inp.reads, wl.k,
                                              count=len(passes[0]))
        passes.append(latencies)
        attempted += len(latencies)
        failed += latencies.count(None) + oracle.mismatches(got)
    rss = peak_rss_mb()
    timing, reads = read_metrics(passes, kmers)
    metrics = {
        "setup_s": statistics.median(
            r["parse_s"] + r["build_s"] + r["save_s"] + r["load_s"] for r in setups),
        "build_s": statistics.median(r["build_s"] for r in setups),
        "save_s": statistics.median(r["save_s"] for r in setups),
        "load_s": statistics.median(r["load_s"] for r in setups),
        "index_bytes": os.path.getsize(inp.index_path),
        "peak_rss_mb": rss,
        **timing,
    }
    samples = {"setups": len(setups), "timed_reads": reads, "passes": len(passes)}
    return metrics, attempted, failed, index_properties(index, inp), samples


def run_traced(pk, wl: Workload, inp: Inputs, seconds: float, spans_path: Path):
    """Per-layer metrics from one fixed unit of work, run plain and traced in turn.

    Times are each layer's self time in the fastest traced unit; counts
    come from ``QueryStats`` where it has them and repeat exactly for a
    given seed.
    """
    reads = inp.reads[: wl.trace_reads]
    tree, genomes = parse_inputs(pk, inp.tree_path, inp.fasta_path)
    oracle = Oracle(pk, tree, genomes, reads, wl.k)

    def unit():
        tree, genomes = parse_inputs(pk, inp.tree_path, inp.fasta_path)
        index = pk.build_index(tree, genomes)
        pk.save_index(index, str(inp.index_path))
        loaded = pk.load_index(str(inp.index_path))
        stats, answers, got = Counter(), [], []
        for j, read in enumerate(reads):
            results, qs = pk.classify_with_stats(loaded, read, wl.k)
            stats.update(asdict(qs))
            answers.extend(r.answer for r in results)
            got.append((j, digest(results)))
        return loaded, stats, answers, got

    tracer = Tracer()
    plain_s, traced_s, own = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while not traced_s or perf_counter() - start < seconds:
        gc.collect()
        (_, _, _, got), took = timed(unit)
        plain_s.append(took)
        failed += oracle.mismatches(got)

        tracer.counts.clear()
        tracer.captured_context_args.clear()
        lo = tracer.mark()
        gc.collect()
        with tracer.installed(pk):
            (loaded, stats, answers, got), took = timed(unit)
            traced_s.append(took)
        times, calls = tracer.self_times(lo, tracer.mark())
        own.append(times)
        failed += oracle.mismatches(got)
        attempted += 2 * len(reads)

    # Peak Python heap of one context-set build, outside the timed units.
    heap = 0
    for args in tracer.captured_context_args:
        tracemalloc.start()
        try:
            pk.contexts.build_context_sets(*args)
            heap = max(heap, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    tracer.write_tsv(spans_path)

    def t(*names):
        return min(sum(o.get(n, 0.0) for n in names) for o in own)

    fwd, rev = loaded.forward, loaded.reverse
    kmers = len(answers)
    counts = tracer.counts
    metrics = {
        "model.parse_s": t("model.parse_newick", "model.parse_fasta"),
        "model.concat_s": t("model.build_concatenation", "model.reverse_concatenation"),
        "lz77.parse_s": t("lz77.lz77_parse"),
        "lz77.phrases": fwd.parse.z + rev.parse.z,
        "contexts.sets_s": t("contexts.build_context_sets"),
        "contexts.points_s": t("contexts.grid_points"),
        "contexts.suffixes": len(fwd.suffix_set) + len(rev.suffix_set),
        "contexts.prefixes": len(fwd.prefix_set) + len(rev.prefix_set),
        "contexts.prefix_bytes": counts["contexts.prefix_bytes"],
        "contexts.peak_heap_mb": heap / 2**20,
        "engine.build_self_s": t("engine.build_index"),
        "tries.build_s": t("tries.build_trie"),
        "grid.build_s": t("grid.ContextGrid"),
        "lca.build_s": t("lca.build_lca"),
        "grid.points": len(fwd.grid.points) + len(rev.grid.points),
        "store.save_s": t("store.save_index"),
        "store.load_self_s": t("store.load_index"),
        "store.bytes_per_text_byte": os.path.getsize(inp.index_path) / len(fwd.text),
        "tries.descents": stats["descents"],
        "tries.descend_s": t("tries.loci_for_pattern_extensions"),
        "tries.verifications": stats["verifications"],
        "tries.verify_s": t("tries.verify_locus"),
        "tries.verify_hit_ratio": counts["tries.verify_hits"] / max(1, calls["tries.verify_locus"]),
        "grid.queries": stats["grid_queries"],
        "grid.query_s": t("grid.range_best"),
        "grid.hit_ratio": counts["grid.range_hits"] / max(1, calls["grid.range_best"]),
        "lca.queries": calls["lca.query"],
        "lca.query_s": t("lca.query"),
        "engine.classify_self_s": t("engine.classify_with_stats"),
        "engine.grid_queries_per_kmer": stats["grid_queries"] / max(1, kmers),
        "engine.null_ratio": sum(a is None for a in answers) / max(1, kmers),
        "engine.root_ratio": sum(a == loaded.tree.root for a in answers) / max(1, kmers),
        "trace.overhead_ratio": statistics.median(traced_s) / statistics.median(plain_s),
    }
    samples = {
        "units_plain": len(plain_s),
        "units_traced": len(traced_s),
        "reads_per_unit": len(reads),
        "kmers_per_unit": kmers,
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, attempted, failed, index_properties(loaded, inp), samples


def spec_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(args) -> int:
    pk = load_program()
    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inp = make_inputs(args.workload, wl, args.seed, workdir)
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}.tsv.gz"
            result = run_traced(pk, wl, inp, args.seconds, spans_path)
        elif args.workload == "build":
            result = run_build(pk, wl, inp, args.seconds)
        else:
            result = run_reads(pk, wl, inp, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted, failed, props, samples = result

    units = spec_units()
    params = asdict(wl)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  clients 1 (closed loop)")
    print("params " + " ".join(f"{k}={v}" for k, v in params.items())
          + f" read_len={READ_LEN} error_rate={ERROR_RATE}")
    print("input " + " ".join(f"{k}={v}" for k, v in props.items()))
    print("samples " + " ".join(f"{k}={v}" for k, v in samples.items()))
    if "timed_reads" in samples:
        beyond = samples["timed_reads"] - int(0.9 * samples["timed_reads"])
        print(f"read_ms percentiles over {samples['timed_reads']} reads ({beyond} beyond p90)")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; prefix its metrics with its name."""
    attempted = failed = 0
    metrics = {}
    crashed = False
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        if child.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            print(f"perfbench: workload {name} exited with status {child.returncode}",
                  file=sys.stderr)
            crashed = True
            continue
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{m}": v for m, v in last["metrics"].items()})
    if crashed:
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
