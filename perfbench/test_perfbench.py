"""Self-test of the benchmark at a tiny size: ``python3 -m pytest perfbench``.

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the oracle check trips on a corrupted answer, that the generator is
deterministic per seed, and that the benchmark refuses to run without the
program's sources.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a run takes well under a second."""
    small = {
        name: dataclasses.replace(wl, genomes=4, genome_len=300, trace_reads=3)
        for name, wl in run.WORKLOADS.items()
    }
    monkeypatch.setattr(run, "WORKLOADS", small)
    monkeypatch.setattr(run, "READ_POOL", 30)
    monkeypatch.setattr(run, "BUILD_SAMPLE_READS", 20)
    monkeypatch.setattr(run, "MIN_PASS_READS", 10)
    monkeypatch.setattr(run, "PASSES", 2)


def run_main(capsys, workload, trace, seed=3):
    status = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                       "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return status, lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace):
    status, text, result = run_main(capsys, workload, trace)
    assert status == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in text), m["name"]
    assert any(line.startswith("failed_ratio 0/") for line in text)


@pytest.mark.parametrize("workload", ["build", "reads_k63_novel"])
def test_oracle_check_trips_on_corrupted_answer(tiny, capsys, monkeypatch, workload):
    import phylokmer

    real = phylokmer.classify_with_stats

    def corrupted(index, pattern, k):
        results, stats = real(index, pattern, k)
        if results:
            results[-1] = dataclasses.replace(results[-1], answer=-1)
        return results, stats

    monkeypatch.setattr(phylokmer, "classify_with_stats", corrupted)
    status, _, result = run_main(capsys, workload, trace=0)
    assert status == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_generator_is_deterministic_per_seed(tmp_path):
    wl = run.WORKLOADS["reads_k63_novel"]
    outs = []
    for seed, sub in [(5, "a"), (5, "b"), (6, "c")]:
        (tmp_path / sub).mkdir()
        inp = run.make_inputs("reads_k63_novel", wl, seed, tmp_path / sub)
        outs.append((inp.tree_path.read_bytes(), inp.fasta_path.read_bytes(), inp.reads))
    assert outs[0] == outs[1]
    assert outs[0][1] != outs[2][1] and outs[0][2] != outs[2][2]
    assert len(outs[0][2]) == run.READ_POOL


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
