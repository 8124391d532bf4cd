"""Stock constructions and the named-graph expression grammar."""

from __future__ import annotations

import pytest

from coalition_kit import are_isomorphic, sp_check
from coalition_kit.graphs import (
    NamedGraphError,
    build_named,
    complete,
    complete_bipartite,
    corona_k3_k1,
    cycle,
    empty_graph,
    join,
    path,
    union,
)
from coalition_kit.limits import ORDER_MAX


def test_join_of_pair_and_triangle():
    g = build_named("join(Kbar(2), K(3))")
    assert g.n == 5
    assert sorted(g.degrees()) == [3, 3, 4, 4, 4]


def test_union_is_the_extremal_graph():
    g = build_named("union(K(1), K(5))")
    assert are_isomorphic(g, union(complete(1), complete(5)))
    assert sp_check(g).is_sp


def test_corona():
    g = build_named("corona_k3_k1")
    assert g == corona_k3_k1()
    assert g.n == 6 and g.edge_count() == 6
    assert sorted(g.degrees()) == [1, 1, 1, 3, 3, 3]


def test_cycles_are_two_regular_and_completes_are_full():
    for n in range(3, 9):
        assert all(d == 2 for d in build_named(f"C({n})").degrees())
    for n in range(1, 9):
        g = build_named(f"K({n})")
        assert all(g.is_full(v) for v in range(n))


def test_union_relabels_right_operand_above_left():
    g = build_named("union(P(2), P(3))")
    assert set(g.edges()) == {(0, 1), (2, 3), (3, 4)}


def test_nested_expressions():
    g = build_named("join(union(K(1), K(3)), K(2))")
    assert g.n == 6
    assert sorted(g.degrees()) == [2, 4, 4, 4, 5, 5]


def test_bipartite_and_path():
    assert are_isomorphic(build_named("Kbip(2,2)"), cycle(4))
    assert build_named("P(1)").n == 1
    assert build_named("Kbar(3)").edge_count() == 0


# every name of the grammar with valid arguments, and the graph its stock
# constructor builds from them
_BUILT = [
    ("K(1)", complete(1)),
    ("K(7)", complete(7)),
    ("Kbar(1)", empty_graph(1)),
    ("Kbar(4)", empty_graph(4)),
    ("C(3)", cycle(3)),
    ("C(9)", cycle(9)),
    ("P(1)", path(1)),
    ("P(5)", path(5)),
    ("Kbip(1,1)", complete_bipartite(1, 1)),
    ("Kbip( 2 , 3 )", complete_bipartite(2, 3)),
    ("corona_k3_k1", corona_k3_k1()),
    ("union(K(1),C(4))", union(complete(1), cycle(4))),
    ("join(P(3), Kbar(2))", join(path(3), empty_graph(2))),
    (
        "join(union(Kbip(1,2), corona_k3_k1), union(K(2), join(C(3), P(2))))",
        join(
            union(complete_bipartite(1, 2), corona_k3_k1()),
            union(complete(2), join(cycle(3), path(2))),
        ),
    ),
    ("union(K(16),K(16))", union(complete(16), complete(16))),
]


@pytest.mark.parametrize("expr,built", _BUILT, ids=[expr for expr, _ in _BUILT])
def test_each_name_builds_its_constructor_graph(expr, built):
    assert build_named(expr) == built


# malformed expressions, and values a constructor rejects: its error is the
# grammar's, after the name
@pytest.mark.parametrize(
    "expr,message",
    [
        pytest.param(expr, message, id=expr)
        for expr, message in [
            ("", None),
            ("C(2)", "C: cycles need order >= 3"),
            ("K(0)", "K: order must be positive"),
            ("Q(3)", None),
            ("K(3", None),
            ("K(3))", None),
            ("join(K(2))", None),
            ("K(x)", None),
            ("K(3)!", None),
            ("Kbip(0,3)", "Kbip: both sides must be positive"),
            ("K(40)", f"K: order must be in 1..ORDER_MAX = {ORDER_MAX}, got 40"),
            ("union(K(20),K(20))", f"union: order must be in 1..ORDER_MAX = {ORDER_MAX}, got 40"),
        ]
    ],
)
def test_grammar_errors(expr, message):
    with pytest.raises(NamedGraphError) as err:
        build_named(expr)
    assert message is None or str(err.value) == message
