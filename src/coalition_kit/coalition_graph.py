"""Coalition graphs of partitions and singleton-coalition graphs.

The coalition graph of a partition has one vertex per part, adjacent
exactly when the two parts form a coalition. For the all-singletons
partition of a singleton-partition graph this keeps the vertex labels of
the underlying graph, so iterating the construction is well defined.
"""

from __future__ import annotations

from .domination import Partition, forms_coalition, is_dominating
from .graphs import Graph


def coalition_graph(g: Graph, p: Partition) -> Graph:
    """Coalition graph of a partition: vertex i is part i in stored order."""
    if p.n != g.n:
        raise ValueError("partition order does not match the graph")
    k = p.k
    dominating = [is_dominating(g, part) for part in p.parts]
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            if dominating[i] or dominating[j]:
                continue
            if forms_coalition(g, p.parts[i], p.parts[j]):
                edges.append((i, j))
    return Graph.from_edges(k, edges)


class NotSingletonPartitionGraph(ValueError):
    """The all-singletons partition of the input is not a coalition partition."""

    def __init__(self, blocking_vertex: int):
        self.blocking_vertex = blocking_vertex
        super().__init__(
            f"not a singleton-partition graph: vertex {blocking_vertex} "
            "has no coalition partner"
        )


def sc_graph(g: Graph) -> Graph:
    """Singleton-coalition graph: the coalition graph of the all-singletons
    partition, defined only for singleton-partition graphs.

    Singletons {u} and {v} form a coalition exactly when neither vertex is
    full and N[u] | N[v] == V, so the image comes out of the same
    closed-neighbourhood pass as ``sp_check``: the first non-full vertex
    left without a partner is the blocking vertex ``sp_check`` reports.
    """
    vmask = g.vertex_mask
    closed = [row | (1 << v) for v, row in enumerate(g.rows)]
    nonfull = [v for v in range(g.n) if closed[v] != vmask]
    rows = [0] * g.n
    for v in nonfull:
        cv = closed[v]
        for u in nonfull:
            if u != v and closed[u] | cv == vmask:
                rows[v] |= 1 << u
        if not rows[v]:
            raise NotSingletonPartitionGraph(v)
    return Graph._trusted(g.n, tuple(rows))
