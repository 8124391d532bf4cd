"""Domination, coalitions, partitions, and the exact coalition number."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from conftest import graphs, oracle_coalition_number
from coalition_kit.domination import (
    Partition,
    closed_neighborhood,
    coalition_number_exact,
    forms_coalition,
    is_coalition_partition,
    is_dominating,
    SpVerdict,
    singleton_partition,
    singleton_partners,
    singleton_scans,
    sp_check,
)
from coalition_kit.canon import enumerate_graphs
from coalition_kit.coalition_graph import NotSingletonPartitionGraph, sc_graph
from coalition_kit.graphs import (
    Graph,
    complete,
    cycle,
    degree_stats,
    empty_graph,
    mask_of,
    path,
    union,
)
from coalition_kit.limits import ORDER_MAX


def test_closed_neighborhood():
    assert closed_neighborhood(cycle(4), 0) == 0
    assert closed_neighborhood(complete(3), 0b001) == 0b111
    assert closed_neighborhood(cycle(4), 0b0001) == mask_of([3, 0, 1])
    with pytest.raises(ValueError):
        closed_neighborhood(complete(3), 1 << 5)


def test_is_dominating():
    assert is_dominating(complete(3), 0b001)
    assert not is_dominating(cycle(4), 0b0001)
    assert is_dominating(cycle(4), 0b0011)


def test_forms_coalition():
    assert forms_coalition(cycle(4), 0b0001, 0b0010)
    assert not forms_coalition(complete(3), 0b001, 0b010)
    # antipodal pair of the hexagon: the union covers everything
    assert forms_coalition(cycle(6), 1 << 0, 1 << 3)
    with pytest.raises(ValueError):
        forms_coalition(cycle(4), 0, 0b0010)
    with pytest.raises(ValueError):
        forms_coalition(cycle(4), 0b0011, 0b0010)


@settings(max_examples=150)
@given(graphs(min_n=2, max_n=7))
def test_coalition_is_symmetric(g):
    a, b = 1 << 0, 1 << (g.n - 1)
    assert forms_coalition(g, a, b) == forms_coalition(g, b, a)


@settings(max_examples=150)
@given(graphs(min_n=2, max_n=7))
def test_full_vertex_singleton_never_in_coalition(g):
    stats = degree_stats(g)
    for v in range(g.n):
        if (stats.full_vertices >> v) & 1:
            for u in range(g.n):
                if u != v:
                    assert not forms_coalition(g, 1 << v, 1 << u)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(3, (0b011, 0b010))  # overlap
    with pytest.raises(ValueError):
        Partition(3, (0b001,))  # gap
    with pytest.raises(ValueError):
        Partition(3, (0b111, 0))  # empty part
    with pytest.raises(ValueError, match="overlapping parts"):
        Partition.from_blocks(4, [[0, 1], [1, 2, 3]])
    p = Partition.from_blocks(3, [[0, 2], [1]])
    assert p == Partition(3, (0b101, 0b010)) and hash(p) == hash(Partition(3, (5, 2)))
    assert p.k == 2 and repr(p) == "Partition(n=3, parts=(5, 2))"


def test_is_coalition_partition_examples():
    c4 = cycle(4)
    verdict = is_coalition_partition(c4, singleton_partition(c4))
    assert verdict.valid
    assert all(v.status == "coalition" for v in verdict.per_part)

    k3 = complete(3)
    verdict = is_coalition_partition(k3, singleton_partition(k3))
    assert verdict.valid
    assert all(v.status == "singleton-dominating" for v in verdict.per_part)

    k3bar = empty_graph(3)
    verdict = is_coalition_partition(k3bar, singleton_partition(k3bar))
    assert not verdict.valid
    assert all(v.status == "invalid" for v in verdict.per_part)

    # a dominating part of size two is invalid even though it dominates
    verdict = is_coalition_partition(complete(3), Partition(3, (0b011, 0b100)))
    assert not verdict.valid


def test_singleton_partition():
    assert singleton_partition(complete(1)).parts == (1,)
    assert singleton_partition(cycle(4)).k == 4
    assert singleton_partition(path(3)).parts == (1, 2, 4)


def test_sp_check_examples():
    assert sp_check(cycle(5)).is_sp
    assert not sp_check(cycle(7)).is_sp
    assert sp_check(union(complete(1), complete(5))).is_sp
    verdict = sp_check(cycle(7))
    assert verdict.blocking_vertex == 0
    assert verdict.partner == {}


def reference_sp_check(g):
    """The per-vertex partner loop ``sp_check`` ran before it shared its
    scan with ``sc_graph``, kept verbatim."""
    vmask = g.vertex_mask
    closed = [g.rows[v] | (1 << v) for v in range(g.n)]
    full = 0
    for v, cv in enumerate(closed):
        if cv == vmask:
            full |= 1 << v
    partner: dict[int, int] = {}
    for v in range(g.n):
        if (full >> v) & 1:
            continue
        for u in range(g.n):
            if u != v and not (full >> u) & 1 and closed[u] | closed[v] == vmask:
                partner[v] = u
                break
        else:
            return SpVerdict(False, full, {}, v)
    return SpVerdict(True, full, partner, None)


def test_sp_check_and_sc_graph_match_the_reference_loop():
    # every class of orders 1-7 under a seeded relabeling: sp_check gives the
    # reference verdict with its partners in the same order, and sc_graph
    # builds an image exactly for the SP verdicts, its least partners being
    # the verdict's, or else reports the same blocking vertex
    rng = random.Random(1107)
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            verdict, expected = sp_check(h), reference_sp_check(h)
            assert verdict == expected
            assert list(verdict.partner.items()) == list(expected.partner.items())
            try:
                image = sc_graph(h)
            except NotSingletonPartitionGraph as exc:
                assert exc.blocking_vertex == expected.blocking_vertex
                continue
            assert expected.is_sp
            least = {v: (r & -r).bit_length() - 1 for v, r in enumerate(image.rows) if r}
            assert least == expected.partner


def assert_scans_match(n: int, batch: list[Graph]) -> None:
    """The chunk scan of ``batch`` equals the per-graph functions, field by
    field, graph by graph."""
    got = singleton_scans(n, [g.rows for g in batch])
    assert len(got) == len(batch)
    for g, (min_degree, full, partners, blocking) in zip(batch, got):
        stats, (want_full, want_partners, want_blocking) = degree_stats(g), singleton_partners(g)
        assert min_degree == stats.min_degree, g
        assert full == stats.full_vertices == want_full, g
        assert type(partners) is list and partners == want_partners, g
        assert blocking == want_blocking, g


@pytest.mark.parametrize("relabel", [False, True], ids=["enumerated", "relabeled"])
def test_chunk_scans_match_the_per_graph_scan_on_every_class(relabel):
    rng = random.Random(3201)
    for n in range(1, 9):
        batch = list(enumerate_graphs(n))
        if relabel:
            batch = [g.relabel(rng.sample(range(n), n)) for g in batch]
        assert_scans_match(n, batch)


def _random_graph(rng: random.Random, n: int, density: float) -> Graph:
    edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < density]
    return Graph.from_edges(n, edges)


def _with_full_vertex(g: Graph, v: int) -> Graph:
    return Graph.from_edges(g.n, [*g.edges(), *((u, v) for u in range(g.n) if u != v)])


def _with_isolated_vertex(g: Graph, v: int) -> Graph:
    return Graph.from_edges(g.n, [e for e in g.edges() if v not in e])


@pytest.mark.parametrize("n", range(1, ORDER_MAX + 1))
def test_chunk_scans_match_the_per_graph_scan_on_random_graphs(n):
    # several densities, each graph as drawn, with a full vertex added and
    # with a vertex isolated, in one batch per order
    rng = random.Random(3200 + n)
    batch = []
    for density in (0.1, 0.3, 0.5, 0.7, 0.9, 0.97):
        for _ in range(8):
            g = _random_graph(rng, n, density)
            v = rng.randrange(n)
            batch += [g, _with_full_vertex(g, v), _with_isolated_vertex(g, v)]
    if n >= 6:
        # the complement of a cycle: SP with no full vertex, which random
        # graphs of high order are seldom
        non_cycle = [(u, v) for v in range(n) for u in range(v) if 1 < v - u < n - 1]
        batch.append(Graph.from_edges(n, non_cycle))
    rng.shuffle(batch)
    assert_scans_match(n, batch)
    # SP and non-SP graphs, with and without a full vertex, are all present
    # from order 6 up
    if n >= 6:
        facts = {(bool(degree_stats(g).full_vertices), sp_check(g).is_sp) for g in batch}
        assert facts == {(False, False), (False, True), (True, False), (True, True)}


def test_chunk_scans_of_the_smallest_graphs_and_batches():
    assert singleton_scans(3, []) == []
    assert singleton_scans(1, [(0,)]) == [(0, 1, [0], None)]
    assert singleton_scans(2, [(2, 1), (0, 0)]) == [(1, 3, [0, 0], None), (0, 0, [2, 1], None)]
    # each graph alone, as a batch of one
    for g in [complete(1), complete(2), empty_graph(2), path(3), union(cycle(4), complete(1))]:
        assert_scans_match(g.n, [g])
    # a non-SP lane keeps the masks before its blocking vertex, 0 after it,
    # next to an SP lane that has them all
    star = Graph.from_edges(5, [(0, k) for k in range(1, 5)])
    blocked = union(path(3), complete(2))
    assert_scans_match(5, [star, blocked, cycle(5), star])
    (_, _, partners, blocking), _ = singleton_scans(5, [blocked.rows, cycle(5).rows])
    assert blocking is not None and not any(partners[blocking:])


@settings(max_examples=200)
@given(graphs(max_n=8))
def test_sp_partner_witnesses_validate(g):
    verdict = sp_check(g)
    if not verdict.is_sp:
        v = verdict.blocking_vertex
        assert v is not None and not g.is_full(v)
        return
    for v, u in verdict.partner.items():
        assert not is_dominating(g, 1 << v)
        assert not is_dominating(g, 1 << u)
        assert is_dominating(g, (1 << v) | (1 << u))


def test_coalition_number_examples():
    assert coalition_number_exact(cycle(6)).value == 6
    assert coalition_number_exact(path(4)).value == 4
    assert coalition_number_exact(empty_graph(3)).value == 2
    # oracle confirmation for the frozen values
    assert oracle_coalition_number(path(4)) == 4
    assert oracle_coalition_number(empty_graph(3)) == 2


def test_coalition_number_witness_validates():
    result = coalition_number_exact(empty_graph(3))
    assert result.witness is not None
    assert result.witness.k == 2
    assert is_coalition_partition(empty_graph(3), result.witness).valid


@settings(max_examples=60)
@given(graphs(max_n=5))
def test_coalition_number_matches_oracle(g):
    assert coalition_number_exact(g).value == oracle_coalition_number(g)


def test_coalition_number_cap():
    with pytest.raises(ValueError):
        coalition_number_exact(empty_graph(10))


def test_single_vertex():
    g = complete(1)
    assert sp_check(g).is_sp
    assert coalition_number_exact(g).value == 1


def test_deleting_the_single_full_vertex_preserves_sp():
    from coalition_kit.canon import enumerate_graphs

    checked = 0
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            if degree_stats(g).full_count == 1 and sp_check(g).is_sp:
                f = degree_stats(g).full_vertices.bit_length() - 1
                assert sp_check(g.delete_vertex(f)).is_sp
                checked += 1
    assert checked > 0
