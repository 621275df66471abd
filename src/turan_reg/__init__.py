"""Regular Turan numbers and clique-maximization toolkit.

Exact values at small order by isomorph-free exhaustive search, the
extremal constructions at any size with self-validation, and the
closed-form counting identities they are checked against.
"""

from .graphs import (
    Graph,
    GraphError,
    complement,
    complete_bipartite,
    complete_graph,
    contains_subgraph,
    count_cliques,
    count_cycles,
    cycle_graph,
    empty_graph,
    from_edges,
    graph6_decode,
    graph6_encode,
    odd_girth,
    star_graph,
    total_cliques,
)
from .canon import canonical_form

__all__ = [
    "Graph",
    "GraphError",
    "canonical_form",
    "complement",
    "complete_bipartite",
    "complete_graph",
    "contains_subgraph",
    "count_cliques",
    "count_cycles",
    "cycle_graph",
    "empty_graph",
    "from_edges",
    "graph6_decode",
    "graph6_encode",
    "odd_girth",
    "star_graph",
    "total_cliques",
]
