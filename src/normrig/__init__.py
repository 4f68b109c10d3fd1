"""Rigidity of bar-joint frameworks in non-Euclidean normed planes.

Combinatorial side: (k,l)-sparsity via pebble games, pair-aware
(uv-)sparsity counts, cover bounds, delete-contract rigidity.
Numerical side: support-functional rigidity matrices over lp planes
with randomized generic-rank estimation.  The two are cross-validated
by the sweeps in :mod:`normrig.experiments`; :mod:`normrig.globalrig`
certifies globally rigid construction sequences.

Importing the package loads the counting modules only.  The numerical
names (from :mod:`normrig.norms` and :mod:`normrig.rigidity`) are
resolved on first access (PEP 562), and only then is numpy imported.
"""

import importlib

from .graph import (
    Graph,
    GraphError,
    GraphFormatError,
    format_graph,
    graph_to_json,
    parse_graph,
)
from .sparsity import (
    CoverBound,
    PebbleState,
    SparsityError,
    UvSparseVerdict,
    cover_rank_bound,
    is_rigid_comb,
    is_uv_rigid_comb,
    is_uv_sparse,
    is_uv_sparse_bruteforce,
)

__version__ = "0.1.0"

# numerical name: its defining module, imported on first access
_NUMERIC = {
    **dict.fromkeys(("DEFAULT_PLANE", "LpPlane", "NormError", "parse_norm"), "norms"),
    **dict.fromkeys(
        ("DEFAULT_SEED", "RankReport", "RigidityError", "generic_ranks"),
        "rigidity",
    ),
}


def __getattr__(name: str):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_NUMERIC[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_NUMERIC})


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
    "DEFAULT_SEED",
    "generic_ranks",
    "PebbleState",
    "UvSparseVerdict",
    "CoverBound",
    "SparsityError",
    "is_rigid_comb",
    "is_uv_sparse",
    "is_uv_sparse_bruteforce",
    "is_uv_rigid_comb",
    "cover_rank_bound",
    "__version__",
]
