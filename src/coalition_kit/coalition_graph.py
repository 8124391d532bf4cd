"""Coalition graphs of partitions and singleton-coalition graphs.

The coalition graph of a partition has one vertex per part, adjacent
exactly when the two parts form a coalition. For the all-singletons
partition of a singleton-partition graph this keeps the vertex labels of
the underlying graph, so iterating the construction is well defined.
"""

from __future__ import annotations

from .domination import Partition, forms_coalition, is_dominating, singleton_partners
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

    Its rows are the partner masks of ``singleton_partners``, which are
    symmetric and loop-free, so the image is built trusted.
    """
    _, partners, blocking = singleton_partners(g)
    if blocking is not None:
        raise NotSingletonPartitionGraph(blocking)
    return Graph._trusted(g.n, tuple(partners))
