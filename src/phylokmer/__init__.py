"""Map pattern k-mers to the smallest subtree of a phylogeny containing them.

Build an index once from a phylogenetic tree and its leaf genomes; query it
with any pattern and any k-mer length k, chosen per query.  Each k-mer maps
to the vertex number of the root of the smallest subtree whose genomes
account for every occurrence, or to None when it occurs nowhere.
"""

from .engine import (
    KmerIndex,
    KmerResult,
    QueryStats,
    SideIndex,
    build_index,
    classify,
    classify_with_stats,
    side_query,
)
from .model import (
    Concatenation,
    GenomeRecord,
    PhyloTree,
    build_concatenation,
    parse_fasta,
    parse_newick,
)
from .oracle import naive_classify
from .store import load_index, save_index

__version__ = "0.1.0"

__all__ = [
    "Concatenation",
    "GenomeRecord",
    "KmerIndex",
    "KmerResult",
    "PhyloTree",
    "QueryStats",
    "SideIndex",
    "build_concatenation",
    "build_index",
    "classify",
    "classify_with_stats",
    "load_index",
    "naive_classify",
    "parse_fasta",
    "parse_newick",
    "save_index",
    "side_query",
    "__version__",
]
