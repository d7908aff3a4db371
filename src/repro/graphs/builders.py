"""Converters between :class:`~repro.graphs.Graph` and other representations."""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph


def from_adjacency_matrix(matrix: np.ndarray, *, directed: bool = True) -> Graph:
    """Build a graph from a dense weight matrix ``A[u, v] = w_uv``.

    Zero entries mean "no edge".  For ``directed=False`` the matrix must be
    symmetric and only the upper triangle is read.
    """
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise GraphError(f"adjacency matrix must be square, got shape {array.shape}")
    if not directed and not np.allclose(array, array.T):
        raise GraphError("undirected adjacency matrix must be symmetric")

    if directed:
        sources, targets = np.nonzero(array)
    else:
        sources, targets = np.nonzero(np.triu(array))
    edges = np.stack([sources, targets], axis=1)
    weights = array[sources, targets]
    return Graph(array.shape[0], edges, weights, directed=directed)


def from_networkx(nx_graph) -> Graph:
    """Convert a ``networkx`` graph (nodes relabelled to ``0..n-1``).

    Edge attribute ``"weight"`` is used as the influence probability when
    present; otherwise all weights default to 1.  Only the graph's own
    methods are called, so networkx itself is not imported.
    """
    directed = nx_graph.is_directed()
    nodes = list(nx_graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    edges = []
    weights = []
    for u, v, data in nx_graph.edges(data=True):
        edges.append((index[u], index[v]))
        weights.append(float(data.get("weight", 1.0)))
    if not edges:
        return Graph(len(nodes), np.empty((0, 2), dtype=np.int64), directed=directed)
    return Graph(len(nodes), edges, weights, directed=directed)


def to_networkx(graph: Graph):
    """Convert to a ``networkx`` ``DiGraph``/``Graph`` with weight attributes."""
    try:
        import networkx as nx
    except ImportError as error:
        raise ImportError(
            "to_networkx needs the 'networkx' extra: pip install -e .[networkx]"
        ) from error

    nx_graph = nx.DiGraph() if graph.is_directed else nx.Graph()
    nx_graph.add_nodes_from(range(graph.num_nodes))
    for source, target, weight in graph.edges():
        nx_graph.add_edge(source, target, weight=weight)
    return nx_graph
