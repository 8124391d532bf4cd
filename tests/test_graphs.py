"""Graph construction: validation of caller rows, and rows the package builds."""

from __future__ import annotations

import pickle
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalition_kit import canon, chains, kernel, limits
from coalition_kit.canon import enumerate_graphs
from coalition_kit.domination import coalition_number_exact
from coalition_kit.coalition_graph import NotSingletonPartitionGraph, sc_graph
from coalition_kit.graphs import (
    Graph,
    Graph6Error,
    complete,
    complete_bipartite,
    corona_k3_k1,
    cycle,
    emit_graph6,
    empty_graph,
    join,
    parse_graph6,
    path,
    union,
)
from coalition_kit.limits import ORDER_MAX


@pytest.mark.parametrize(
    "n,rows,message",
    [
        (0, (), f"order must be in 1..ORDER_MAX = {ORDER_MAX}, got 0"),
        (
            ORDER_MAX + 1,
            (0,) * (ORDER_MAX + 1),
            f"order must be in 1..ORDER_MAX = {ORDER_MAX}, got {ORDER_MAX + 1}",
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
    # every class of orders 1-7 (decoded from its canonical code), its graph6
    # round trip, its edge list, a relabeling, each pair toggled, its
    # vertex-deleted subgraphs, its union and join with K2, and its image
    rng = random.Random(11)
    images = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            _revalidated(g)
            _revalidated(parse_graph6(emit_graph6(g)))
            _revalidated(Graph.from_edges(n, g.edges()))
            perm = list(range(n))
            rng.shuffle(perm)
            _revalidated(g.relabel(perm))
            for v in range(n):
                for u in range(v):
                    _revalidated(g.without_edge(u, v) if g.has_edge(u, v) else g.with_edge(u, v))
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
        _revalidated(empty_graph(n))
        _revalidated(path(n))
    _revalidated(cycle(9).induced(0b101010101))
    # the chain catalog's templates
    templates = [
        chains._k4_minus_e(),
        chains._k4_plus_tail_pair(),
        chains._house(),
        chains._bridged_pair(),
        corona_k3_k1(),
    ]
    for m in range(1, 11):
        templates += [chains._pair_join_independents(m), complete_bipartite(2, m)]
        if m >= 2:
            templates.append(chains._pair_join_independents_plus_edge(m))
    for n in range(6, 13):
        templates += [
            chains._triangle_with_pendants(n),
            chains._triangle_with_pendants_plus_edge(n),
        ]
    for g in templates:
        _revalidated(g)


@pytest.mark.parametrize("edit", ["with_edge", "without_edge"])
@pytest.mark.parametrize("u,v", [(0, 3), (3, 0), (2, 7), (-1, 0), (0, -1), (-1, 2), (-4, 1)])
def test_edge_edits_reject_vertices_outside_the_graph(edit, u, v):
    # an index past the rows or a negative shift raises before any graph is
    # built, so trusting the edited rows lets no invalid graph out
    g = path(3)
    with pytest.raises((IndexError, ValueError)):
        getattr(g, edit)(u, v)


@st.composite
def graph6_like(draw):
    """Text close to a graph6 record: an order byte, then a body of about
    the right length, padding bits free, and maybe one byte out of range."""
    n = draw(st.integers(0, ORDER_MAX + 2))
    need = (n * (n - 1) // 2 + 5) // 6
    size = draw(st.sampled_from([need, need, need, need + 1, max(need - 1, 0)]))
    x = draw(st.integers(0, (1 << (6 * size)) - 1))
    body = [63 + ((x >> (6 * k)) & 63) for k in range(size)]
    if size and draw(st.integers(0, 3)) == 0:
        body[draw(st.integers(0, size - 1))] = draw(st.integers(32, 127))
    return chr(n + 63) + "".join(map(chr, body))


@settings(max_examples=500, deadline=None)
@given(graph6_like() | st.text(max_size=12))
def test_every_accepted_graph6_record_decodes_to_valid_rows(text):
    try:
        g = parse_graph6(text)
    except Graph6Error:
        return
    _revalidated(g)


def test_trusted_constructions_keep_the_order_cap():
    with pytest.raises(ValueError, match=f"order must be in 1..ORDER_MAX = {ORDER_MAX}, got"):
        complete(ORDER_MAX + 1)
    with pytest.raises(ValueError, match=f"order must be in 1..ORDER_MAX = {ORDER_MAX}, got"):
        union(complete(ORDER_MAX), complete(1))
    with pytest.raises(ValueError, match=f"order must be in 1..ORDER_MAX = {ORDER_MAX}, got"):
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
def test_symmetry_check_matches_the_reference_scan(case):
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
    restored = pickle.loads(pickle.dumps(trusted))
    assert restored == validated and hash(restored) == hash(validated)


def test_graph_fields_are_read_only():
    g = Graph(3, (0b110, 0b101, 0b011))
    for name, value in (("n", 4), ("rows", (0, 0, 0)), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    with pytest.raises(AttributeError):
        del g.n
    assert g == Graph(3, (0b110, 0b101, 0b011))
    assert repr(g) == "Graph(n=3, rows=(6, 5, 3))"


def test_importing_the_package_loads_no_dataclasses():
    # the records are slotted classes and NamedTuples, so every run is
    # spared the import of dataclasses and of the inspect it pulls in
    code = "import sys, coalition_kit; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# Each size cap, a call just past it, and the limit its error must name.
_LIMIT_ERRORS = {
    "graph-order": ("ORDER_MAX", lambda _: complete(limits.ORDER_MAX + 1)),
    "graph6-order": ("ORDER_MAX", lambda _: parse_graph6(chr(63 + limits.ORDER_MAX + 1))),
    "graph6-long-order": ("ORDER_MAX", lambda _: parse_graph6("~~?")),
    "isomorphism": ("CANON_MAX", lambda _: canon.are_isomorphic(cycle(17), cycle(17))),
    "code-order": ("CANON_MAX", lambda _: canon.graph_from_code(bytes([17]) + bytes(17))),
    "pure-kernel": ("CANON_MAX", lambda _: kernel.canonical_code(17, (0,) * 17)),
    "compiled-kernel": ("CANON_MAX", lambda fast: fast.canonical_code(17, (0,) * 17)),
    "coalition-number": ("CNUM_MAX", lambda _: coalition_number_exact(cycle(10))),
    "class-codes": ("ENUM_MAX", lambda _: list(canon.class_pool(1, limits.ENUM_MAX + 1).codes())),
    "enumeration": ("ENUM_MAX", lambda _: list(enumerate_graphs(limits.ENUM_MAX + 1))),
    "class-count": ("ENUM_MAX", lambda _: canon.class_count(limits.ENUM_MAX + 1)),
}


@pytest.mark.parametrize("case", sorted(_LIMIT_ERRORS))
def test_every_limit_error_names_its_limit(request, case):
    name, call = _LIMIT_ERRORS[case]
    fast = request.getfixturevalue("fastkernel") if case == "compiled-kernel" else None
    with pytest.raises(ValueError) as err:
        call(fast)
    assert f"{name} = {getattr(limits, name)}" in str(err.value)
