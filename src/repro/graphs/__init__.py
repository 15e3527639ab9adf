"""Graph substrate: the adjacency-list kernel, generators, traversal, metrics.

This package is self-contained (stdlib only) and provides everything the
decomposition algorithms need from a graph library:

* :class:`~repro.graphs.graph.Graph` / :class:`~repro.graphs.graph.GraphBuilder`
  — the immutable flat-CSR graph type;
* :class:`~repro.graphs.activeset.ActiveSet` — byte-mask vertex subsets
  (the paper's shrinking graph :math:`G_t`) feeding the traversal kernel;
* :mod:`~repro.graphs.generators` — deterministic and seeded random
  topology families used as workloads;
* :mod:`~repro.graphs.traversal` — BFS primitives with *active-set*
  filtering (the paper's shrinking graph :math:`G_t`);
* :mod:`~repro.graphs.metrics` — exact strong/weak diameter computations
  used to verify every guarantee;
* :mod:`~repro.graphs.subgraph` — induced subgraphs and the quotient
  supergraph :math:`G(P)`;
* :mod:`~repro.graphs.builders` — edge-list parsing and networkx interop.
"""

from .activeset import ActiveSet, as_active_mask
from .builders import (
    from_adjacency,
    from_edge_list,
    from_networkx,
    parse_edge_list_text,
    parse_graph_spec,
    to_networkx,
)
from .generators import (
    balanced_tree,
    barabasi_albert,
    barbell_graph,
    binary_tree,
    caterpillar_graph,
    cluster_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    gnp_fast,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    random_connected,
    random_regular,
    random_tree,
    star_graph,
    torus_graph,
    watts_strogatz,
)
from .graph import Edge, Graph, GraphBuilder
from .metrics import (
    all_pairs_distances,
    average_distance,
    diameter,
    eccentricity,
    radius,
    strong_diameter,
    weak_diameter,
)
from .subgraph import induced_subgraph, quotient_graph, relabel
from .transforms import line_graph, power_graph
from .traversal import (
    bfs_distances,
    bfs_distances_bounded,
    bfs_levels,
    component_of,
    connected_components,
    is_connected,
    multi_source_bfs,
    shortest_path,
)

__all__ = [
    "ActiveSet",
    "Edge",
    "Graph",
    "GraphBuilder",
    "as_active_mask",
    # builders
    "from_adjacency",
    "from_edge_list",
    "from_networkx",
    "parse_edge_list_text",
    "parse_graph_spec",
    "to_networkx",
    # generators
    "balanced_tree",
    "barabasi_albert",
    "barbell_graph",
    "binary_tree",
    "caterpillar_graph",
    "cluster_graph",
    "complete_graph",
    "cycle_graph",
    "empty_graph",
    "erdos_renyi",
    "gnp_fast",
    "grid_graph",
    "hypercube_graph",
    "lollipop_graph",
    "path_graph",
    "random_connected",
    "random_regular",
    "random_tree",
    "star_graph",
    "torus_graph",
    "watts_strogatz",
    # metrics
    "all_pairs_distances",
    "average_distance",
    "diameter",
    "eccentricity",
    "radius",
    "strong_diameter",
    "weak_diameter",
    # subgraph
    "induced_subgraph",
    "quotient_graph",
    "relabel",
    # transforms
    "line_graph",
    "power_graph",
    # traversal
    "bfs_distances",
    "bfs_distances_bounded",
    "bfs_levels",
    "component_of",
    "connected_components",
    "is_connected",
    "multi_source_bfs",
    "shortest_path",
]
