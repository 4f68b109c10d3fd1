"""Rigidity of bar-joint frameworks in non-Euclidean normed planes.

Combinatorial side: (k,l)-sparsity via pebble games, pair-aware
(uv-)sparsity counts, cover bounds, delete-contract rigidity.
Numerical side: support-functional rigidity matrices over lp planes
with randomized generic-rank estimation.  The two are cross-validated
by the sweeps in :mod:`normrig.experiments`; :mod:`normrig.globalrig`
certifies globally rigid construction sequences.
"""

from .graph import (
    Graph,
    GraphError,
    GraphFormatError,
    format_graph,
    graph_to_json,
    parse_graph,
)
from .norms import DEFAULT_PLANE, LpPlane, NormError, parse_norm
from .rigidity import (
    DEFAULT_SEED,
    RankReport,
    RigidityError,
    TolerancePolicy,
    generic_ranks,
)
from .sparsity import (
    CoverBound,
    PebbleState,
    SparsityError,
    UvSparseVerdict,
    cover_rank_bound,
    is_kl_sparse,
    is_rigid_comb,
    is_uv_rigid_comb,
    is_uv_sparse,
    is_uv_sparse_bruteforce,
    pebble_game,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphError",
    "GraphFormatError",
    "format_graph",
    "parse_graph",
    "graph_to_json",
    "LpPlane",
    "DEFAULT_PLANE",
    "NormError",
    "parse_norm",
    "RankReport",
    "RigidityError",
    "TolerancePolicy",
    "DEFAULT_SEED",
    "generic_ranks",
    "PebbleState",
    "UvSparseVerdict",
    "CoverBound",
    "SparsityError",
    "pebble_game",
    "is_kl_sparse",
    "is_rigid_comb",
    "is_uv_sparse",
    "is_uv_sparse_bruteforce",
    "is_uv_rigid_comb",
    "cover_rank_bound",
    "__version__",
]
