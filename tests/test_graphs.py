"""Graph construction: validation of caller rows, and rows the package builds."""

from __future__ import annotations

import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def scan_first_asymmetric_pair(rows):
    """Reference symmetry check: every bit of every row, in order."""
    for u, row in enumerate(rows):
        for v in range(len(rows)):
            if (row >> v) & 1 and not (rows[v] >> u) & 1:
                return u, v
    return None


@st.composite
def symmetric_rows_with_flip(draw):
    """Loop-free symmetric rows of order 1..32, then maybe one bit flipped
    off the diagonal."""
    n = draw(st.integers(1, 32))
    pairs = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if pairs & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            pairs >>= 1
    if n > 1 and draw(st.booleans()):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        v += v >= u
        rows[u] ^= 1 << v
    return n, tuple(rows)


@settings(max_examples=300, deadline=None)
@given(symmetric_rows_with_flip())
def test_transpose_symmetry_check_matches_the_scan(case):
    n, rows = case
    pair = scan_first_asymmetric_pair(rows)
    if pair is None:
        assert Graph(n, rows).rows == rows
    else:
        with pytest.raises(ValueError, match=rf"^asymmetric adjacency at \({pair[0]},{pair[1]}\)$"):
            Graph(n, rows)


def _bytes_per_graph(build, rows, count=10_000) -> float:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [build(3, rows) for _ in range(count)]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) == count
    return (after - before) / count


def test_trusted_graph_costs_what_a_validated_graph_costs():
    rows = (0b110, 0b101, 0b011)
    trusted = _bytes_per_graph(Graph._trusted, rows)
    validated = _bytes_per_graph(Graph, rows)
    assert abs(trusted - validated) < 4, (trusted, validated)


def test_trusted_graph_compares_hashes_and_pickles_like_a_validated_one():
    rows = (0b110, 0b101, 0b011)
    trusted, validated = Graph._trusted(3, rows), Graph(3, rows)
    assert trusted == validated and hash(trusted) == hash(validated)
    assert pickle.dumps(trusted) == pickle.dumps(validated)
    assert pickle.loads(pickle.dumps(trusted)) == validated
