"""Dynamic estimation of maximum matching size under edge updates.

Maintains a value nu with nu <= mu(G) <= alpha * nu, alpha ~ 1.707 + eps on
bipartite graphs and ~1.973 + eps in general, via a maintained maximal
matching with no 3-augmenting path (so also mu <= 1.5 nu in every mode) and
two-pass augmentation counting over the live graph.
"""

from .graph import (BMatching, DynamicGraph, Matching, UpdateEvent,
                    norm_edge, read_stream, write_stream)
from .estimator import (Estimator, EstimatorConfig, SizeEstimate,
                        bipartite_query, combine_amm_and_alpha, general_query)
from .streaming import bipartite_two_pass, general_two_pass

__all__ = [
    "BMatching", "DynamicGraph", "Matching", "UpdateEvent", "norm_edge",
    "read_stream", "write_stream",
    "Estimator", "EstimatorConfig", "SizeEstimate", "bipartite_query",
    "combine_amm_and_alpha", "general_query", "bipartite_two_pass",
    "general_two_pass",
]

__version__ = "0.1.0"
