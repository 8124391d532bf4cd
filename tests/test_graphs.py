"""Graph construction: validation of caller rows, and rows the package builds."""

from __future__ import annotations

import pytest

from coalition_kit.canon import enumerate_graphs
from coalition_kit.coalition_graph import NotSingletonPartitionGraph, sc_graph
from coalition_kit.graphs import Graph, complete, cycle, join, union
from coalition_kit.limits import ORDER_MAX


@pytest.mark.parametrize(
    "n,rows,message",
    [
        (0, (), f"order must be in 1..{ORDER_MAX}, got 0"),
        (
            ORDER_MAX + 1,
            (0,) * (ORDER_MAX + 1),
            f"order must be in 1..{ORDER_MAX}, got {ORDER_MAX + 1}",
        ),
        (3, (0, 0), "row count does not match order"),
        (2, (0b100, 0), "row 0 has bits at or above the order"),
        (3, (0b010, 0b1001, 0), "row 1 has bits at or above the order"),
        (2, (0b01, 0), "self-loop at vertex 0"),
        (3, (0b010, 0b011, 0), "self-loop at vertex 1"),
        (3, (0b010, 0, 0), "asymmetric adjacency at (0,1)"),
        (3, (0b110, 0b001, 0b000), "asymmetric adjacency at (0,2)"),
        (3, (0, 0b101, 0b010), "asymmetric adjacency at (1,0)"),
    ],
    ids=[
        "order-0",
        "order-above-max",
        "row-count",
        "bit-above-order",
        "bit-above-order-later-row",
        "self-loop",
        "self-loop-later-row",
        "asymmetric",
        "asymmetric-after-a-symmetric-pair",
        "asymmetric-below-the-diagonal",
    ],
)
def test_graph_rejects_invalid_rows(n, rows, message):
    with pytest.raises(ValueError) as err:
        Graph(n, rows)
    assert str(err.value) == message


def _revalidated(g: Graph) -> None:
    assert Graph(g.n, g.rows) == g


def test_package_built_rows_pass_full_validation():
    # every class of orders 1-7 (decoded from its canonical code), its
    # vertex-deleted subgraphs, its union and join with K2, and its image
    images = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            _revalidated(g)
            _revalidated(union(g, complete(2)))
            _revalidated(join(g, complete(2)))
            if n > 1:
                for v in range(n):
                    _revalidated(g.delete_vertex(v))
            try:
                image = sc_graph(g)
            except NotSingletonPartitionGraph:
                continue
            _revalidated(image)
            images += 1
    assert images == 400  # the singleton-partition classes of orders 1-7
    for n in range(1, ORDER_MAX + 1):
        _revalidated(complete(n))
    _revalidated(cycle(9).induced(0b101010101))


def test_trusted_constructions_keep_the_order_cap():
    with pytest.raises(ValueError, match=f"order must be in 1..{ORDER_MAX}"):
        complete(ORDER_MAX + 1)
    with pytest.raises(ValueError, match=f"order must be in 1..{ORDER_MAX}"):
        union(complete(ORDER_MAX), complete(1))
    with pytest.raises(ValueError, match=f"order must be in 1..{ORDER_MAX}"):
        join(complete(ORDER_MAX - 1), complete(2))
