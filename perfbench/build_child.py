"""Set-up half of the read workloads, in a process of its own.

    python3 perfbench/build_child.py TREE FASTA INDEX

Parses the inputs, builds the index and saves it (three times, keeping the
median), and prints the timings of the three steps, scaled like every
benchmark time (see ``run.timed``), as one JSON object.  ``run.py`` loads the saved index in
its own process, so the build's peak memory stays out of that process's.
"""
import json
import statistics
import sys

from run import load_program, parse_inputs, timed


def main(tree_path: str, fasta_path: str, index_path: str) -> None:
    pk = load_program()
    (tree, genomes), parse_s = timed(parse_inputs, pk, tree_path, fasta_path)
    index, build_s = timed(pk.build_index, tree, genomes)
    save_s = statistics.median(timed(pk.save_index, index, index_path)[1] for _ in range(3))
    print(json.dumps({"parse_s": parse_s, "build_s": build_s, "save_s": save_s}))


if __name__ == "__main__":
    main(*sys.argv[1:])
