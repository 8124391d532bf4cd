"""Coalition graphs of partitions and singleton-coalition images."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from conftest import graph_with_permutation, graphs
from coalition_kit import are_isomorphic, enumerate_graphs
from coalition_kit.coalition_graph import (
    NotSingletonPartitionGraph,
    coalition_graph,
    sc_graph,
)
from coalition_kit.domination import Partition, singleton_partition, sp_check
from coalition_kit.graphs import (
    complete,
    complete_bipartite,
    cycle,
    degree_stats,
    empty_graph,
    path,
    union,
)


def test_singleton_coalition_images():
    assert are_isomorphic(sc_graph(cycle(4)), complete(4))
    assert are_isomorphic(sc_graph(complete(4)), empty_graph(4))
    assert are_isomorphic(sc_graph(path(3)), union(complete(1), complete(2)))
    assert are_isomorphic(sc_graph(path(4)), cycle(4))
    assert are_isomorphic(sc_graph(cycle(5)), cycle(5))
    assert are_isomorphic(sc_graph(union(complete(1), complete(5))), complete_bipartite(1, 5))


def test_image_of_the_path_is_exact():
    # the four coalition pairs of the path a-b-c-d are exactly the
    # end-to-middle and end-to-end pairs
    image = sc_graph(path(4))
    assert set(image.edges()) == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_part_indexing_follows_the_partition():
    g = cycle(4)
    image = coalition_graph(g, Partition(4, (0b0011, 0b0100, 0b1000)))
    assert image.n == 3
    # the part {0,1} dominates; only the parts {2} and {3} form a coalition
    assert set(image.edges()) == {(1, 2)}


def test_rejects_non_sp_input():
    with pytest.raises(NotSingletonPartitionGraph) as err:
        sc_graph(cycle(7))
    assert err.value.blocking_vertex == 0
    assert "vertex 0" in str(err.value)


def test_partition_order_mismatch():
    with pytest.raises(ValueError):
        coalition_graph(cycle(4), Partition(3, (1, 2, 4)))


@settings(max_examples=150)
@given(graphs(max_n=7))
def test_order_equals_part_count(g):
    p = singleton_partition(g)
    assert coalition_graph(g, p).n == p.k


@settings(max_examples=150)
@given(graph_with_permutation(max_n=7))
def test_image_is_isomorphism_invariant(gp):
    g, perm = gp
    if not sp_check(g).is_sp:
        return
    assert are_isomorphic(sc_graph(g), sc_graph(g.relabel(perm)))


@settings(max_examples=150)
@given(graphs(min_n=2, max_n=7))
def test_full_vertices_are_isolated_in_the_image(g):
    if not sp_check(g).is_sp:
        return
    image = sc_graph(g)
    full = degree_stats(g).full_vertices
    for v in range(g.n):
        if (full >> v) & 1:
            assert image.degree(v) == 0


def test_direct_image_matches_the_partition_construction():
    # every class of orders 1-7, as enumerated and relabeled at random
    rng = random.Random(7)
    for n in range(1, 8):
        for cls in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for g in (cls, cls.relabel(perm)):
                verdict = sp_check(g)
                if verdict.is_sp:
                    assert sc_graph(g) == coalition_graph(g, singleton_partition(g))
                else:
                    with pytest.raises(NotSingletonPartitionGraph) as err:
                        sc_graph(g)
                    assert err.value.blocking_vertex == verdict.blocking_vertex
