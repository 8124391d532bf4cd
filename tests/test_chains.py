"""Chain iteration, length conventions, and template classification."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings

from conftest import graph_with_permutation
from coalition_kit import are_isomorphic, chains, emit_graph6
from coalition_kit.chains import (
    ChainClassificationError,
    CycleOutcome,
    OutOfCharacterizedRange,
    StepCap,
    TerminatedNonSp,
    classify_chain,
    l_scc,
    sc_chain,
)
from coalition_kit.canon import canonical_form, enumerate_graphs
from coalition_kit.coalition_graph import NotSingletonPartitionGraph, sc_graph
from coalition_kit.domination import sp_check
from coalition_kit.graphs import (
    complete,
    cycle,
    degree_stats,
    empty_graph,
    path,
    union,
)


def test_square_chain_is_exact():
    chain = sc_chain(cycle(4))
    assert [emit_graph6(g) for g in chain.sequence] == ["Cl", "C~", "C?"]
    assert are_isomorphic(chain.sequence[1], complete(4))
    assert are_isomorphic(chain.sequence[2], empty_graph(4))
    assert chain.outcome == TerminatedNonSp(2)
    value = l_scc(cycle(4))
    assert (value.kind, value.value) == ("finite", 2)


def test_pentagon_chain_is_constant():
    chain = sc_chain(cycle(5))
    assert chain.outcome == CycleOutcome(0, 1)
    assert len(chain.sequence) == 2
    assert are_isomorphic(chain.sequence[1], cycle(5))
    value = l_scc(cycle(5))
    assert (value.kind, value.value) == ("finite", 0)


def test_short_path_chain_alternates():
    chain = sc_chain(path(3))
    assert chain.outcome == CycleOutcome(0, 2)
    assert are_isomorphic(chain.sequence[1], union(complete(1), complete(2)))
    assert l_scc(path(3)).kind == "infinite"


def test_chain_codes_match_sequence():
    chain = sc_chain(path(3))
    assert chain.codes[0] == chain.codes[2]
    assert chain.codes[0] != chain.codes[1]


def test_non_sp_start():
    value = l_scc(cycle(7))
    assert (value.kind, value.value, value.start_not_sp) == ("finite", 0, True)
    chain = sc_chain(cycle(7))
    assert chain.outcome == TerminatedNonSp(0)
    assert len(chain.sequence) == 1


def test_step_cap():
    chain = sc_chain(cycle(4), max_steps=1)
    assert chain.outcome == StepCap(1)
    assert l_scc(cycle(4), max_steps=1).kind == "unknown"
    with pytest.raises(ValueError):
        sc_chain(cycle(4), max_steps=0)


def _eager_chain(g, max_steps):
    """Reference chain that canonicalizes every member as it is reached."""
    seq = [g]
    codes = [canonical_form(g)]
    seen = {codes[0]: 0}
    while True:
        try:
            nxt = sc_graph(seq[-1])
        except NotSingletonPartitionGraph:
            return tuple(seq), TerminatedNonSp(len(seq) - 1), tuple(codes)
        if len(seq) - 1 == max_steps:
            return tuple(seq), StepCap(max_steps), tuple(codes)
        code = canonical_form(nxt)
        seq.append(nxt)
        codes.append(code)
        if code in seen:
            entry = seen[code]
            return tuple(seq), CycleOutcome(entry, len(seq) - 1 - entry), tuple(codes)
        seen[code] = len(seq) - 1


def test_lazy_codes_match_an_eager_chain():
    # every class of orders 1-7, as enumerated and relabeled at random
    rng = random.Random(11)
    for n in range(1, 8):
        for cls in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for g in (cls, cls.relabel(perm)):
                for max_steps in (1, 2, 64):
                    chain = sc_chain(g, max_steps)
                    expected = _eager_chain(g, max_steps)
                    assert (chain.sequence, chain.outcome, chain.codes) == expected, (
                        emit_graph6(g),
                        max_steps,
                    )


@pytest.fixture
def canon_calls(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return canonical_form(g)

    monkeypatch.setattr(chains, "canonical_form", counted)
    return calls


def test_chains_that_reach_a_non_sp_graph_compute_no_code(canon_calls):
    assert sc_chain(cycle(7)).outcome == TerminatedNonSp(0)
    assert sc_chain(union(complete(1), complete(5))).outcome == TerminatedNonSp(1)
    assert canon_calls == []


def test_cycle_is_found_with_lazy_codes(canon_calls):
    chain = sc_chain(path(3))
    assert chain.outcome == CycleOutcome(0, 2)
    computed = len(canon_calls)
    assert chain.codes[0] == chain.codes[2]
    assert len(canon_calls) == computed  # a cycling chain holds every code


def test_chain_result_equality_and_pickling_ignore_the_code_cache():
    fresh = sc_chain(cycle(4))
    read = sc_chain(cycle(4))
    assert len(read.codes) == 3
    assert fresh == read and hash(fresh) == hash(read)
    restored = pickle.loads(pickle.dumps(read))
    assert restored == fresh
    assert restored.codes == fresh.codes


def test_terminated_chains_carry_the_blocking_vertex():
    # the last member's blocking vertex, as sp_check reports it, or None
    rng = random.Random(13)
    for n in range(1, 7):
        for cls in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for g in (cls, cls.relabel(perm)):
                chain = sc_chain(g)
                expected = None
                if isinstance(chain.outcome, TerminatedNonSp):
                    expected = sp_check(chain.sequence[-1]).blocking_vertex
                    assert expected is not None
                assert chain.blocking_vertex == expected, emit_graph6(g)
    assert sc_chain(cycle(7)) == chains.ChainResult((cycle(7),), TerminatedNonSp(0))


def test_classify_chain_uses_given_stats(monkeypatch):
    g = cycle(5)
    stats, chain = degree_stats(g), sc_chain(g)
    monkeypatch.setattr(chains, "degree_stats", lambda g: pytest.fail("recomputed"))
    assert classify_chain(g, chain, stats).label == "LemH23(d)"


def test_classify_chain_reads_the_start_verdict_from_a_given_chain():
    with pytest.raises(ValueError):
        classify_chain(cycle(7), sc_chain(cycle(7)))


def test_classification_examples():
    assert classify_chain(union(complete(1), complete(5))).label == "Thm14(c)"
    assert classify_chain(cycle(4)).label == "Lem18(a)"
    assert classify_chain(complete(2)).label == "Thm15(a)"
    assert classify_chain(path(4)).label == "Thm16(b)"
    assert classify_chain(cycle(5)).label == "LemH23(d)"
    assert classify_chain(complete(3)).label == "Thm17"
    house = cycle(5).with_edge(0, 2)
    assert classify_chain(house).label == "Lem19(e)"


def test_classification_guards():
    with pytest.raises(OutOfCharacterizedRange):
        classify_chain(complete(4))
    with pytest.raises(ValueError):
        classify_chain(cycle(7))


@settings(max_examples=150)
@given(graph_with_permutation(max_n=7))
def test_chain_is_well_defined_up_to_relabeling(gp):
    g, perm = gp
    assert sc_chain(g).codes == sc_chain(g.relabel(perm)).codes


def _sp_graphs(n_max, pred):
    for n in range(1, n_max + 1):
        for g in enumerate_graphs(n):
            if pred(g) and sp_check(g).is_sp:
                yield g


def test_degree_two_with_full_vertex_stops_after_one_arrow():
    seen = 0
    for g in _sp_graphs(6, lambda g: degree_stats(g).min_degree == 2 and degree_stats(g).full_count >= 1):
        value = l_scc(g)
        assert (value.kind, value.value) == ("finite", 1), emit_graph6(g)
        seen += 1
    assert seen > 0


def test_degree_two_without_full_vertex_is_infinite_or_short():
    seen = 0
    for g in _sp_graphs(
        6, lambda g: degree_stats(g).min_degree == 2 and degree_stats(g).full_count == 0
    ):
        value = l_scc(g)
        assert value.kind == "infinite" or (value.kind == "finite" and value.value <= 5)
        seen += 1
    assert seen > 0


def test_every_small_sp_chain_classifies():
    for g in _sp_graphs(6, lambda g: degree_stats(g).min_degree <= 2):
        try:
            template = classify_chain(g)
        except ChainClassificationError as err:  # pragma: no cover - failure path
            pytest.fail(f"{emit_graph6(g)}: {err}")
        assert template.order == g.n


def test_corrected_and_added_catalog_entries():
    from coalition_kit import parse_graph6

    # the recursion of the independent-hub case can stop after two arrows;
    # these two graphs realize the added entry at orders 6 and 7
    for g6 in ("ELpw", "FLpzw"):
        assert classify_chain(parse_graph6(g6)).label == "LemH23(x*)"
    # tail-join chain whose final graph keeps the hub-partner edge
    assert classify_chain(parse_graph6("EJfg")).label == "LemH23(w*)"
    # fixed-point biclique chain
    assert classify_chain(parse_graph6("EJaG")).label == "LemH23(v)"
