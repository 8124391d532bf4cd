"""Chain iteration, length conventions, and template classification."""

from __future__ import annotations

import pickle
import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings

from conftest import graph_with_permutation
from coalition_kit import are_isomorphic, chains, emit_graph6, verify
from coalition_kit.chains import (
    ChainClassificationError,
    ChainResult,
    CycleOutcome,
    OutOfCharacterizedRange,
    StepCap,
    TerminatedNonSp,
    classify_chain,
    l_scc,
    sc_chain,
)
from coalition_kit.canon import canonical_form, class_pool, enumerate_graphs
from coalition_kit.coalition_graph import NotSingletonPartitionGraph, sc_graph
from coalition_kit.domination import sp_check
from coalition_kit.families import generate_family, recognize_h2
from coalition_kit.graphs import (
    DegreeStats,
    complete,
    complete_bipartite,
    corona_k3_k1,
    cycle,
    degree_stats,
    empty_graph,
    join,
    parse_graph6,
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


def test_members_with_distinct_degree_sequences_compute_no_code(canon_calls):
    # path(4) -> C4 -> K4 -> 4 isolated vertices: no two SP members can repeat
    assert sc_chain(path(4)).outcome == TerminatedNonSp(3)
    assert canon_calls == []
    # of the 108 chains of orders 1-7 with two SP members or more, 60 have
    # pairwise distinct degree sequences
    distinct = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            canon_calls.clear()
            chain = sc_chain(g)
            sp_count = len(chain.sequence) - isinstance(chain.outcome, TerminatedNonSp)
            degrees = {tuple(sorted(h.degrees())) for h in chain.sequence[:sp_count]}
            if sp_count >= 2 and len(degrees) == sp_count:
                distinct += 1
                assert canon_calls == [], emit_graph6(g)
    assert distinct == 60


def test_cycle_is_found_with_lazy_codes(canon_calls):
    # P3 -> K1+K2 -> P3 with the rows of the start: the repeat takes the
    # start's code, and the middle member, whose degree sequence ties with
    # no other, is canonicalized only when its code is read
    chain = sc_chain(path(3))
    assert chain.outcome == CycleOutcome(0, 2)
    assert canon_calls == [chain.sequence[0]]
    assert chain.codes[0] == chain.codes[2] != chain.codes[1]
    assert canon_calls == [chain.sequence[0], chain.sequence[1]]


def test_labelled_equal_members_share_one_code(canon_calls):
    # EJaG -> Es\o -> Es\o: the repeat has the exact rows of the member
    # before it, so it takes that member's code
    chain = sc_chain(parse_graph6("EJaG"))
    assert chain.outcome == CycleOutcome(1, 1)
    assert chain.sequence[2] == chain.sequence[1]
    assert canon_calls == [chain.sequence[1]]
    # the start ties with no member, so its code waits for a read
    assert chain.codes[2] == chain.codes[1] != chain.codes[0]
    assert canon_calls == [chain.sequence[1], chain.sequence[0]]


def test_outcomes_equal_only_outcomes_of_their_own_type():
    assert TerminatedNonSp(3) != StepCap(3) and not TerminatedNonSp(3) == StepCap(3)
    assert CycleOutcome(0, 1) != (0, 1)
    assert TerminatedNonSp(3) == TerminatedNonSp(3) and not TerminatedNonSp(3) != TerminatedNonSp(3)
    assert hash(CycleOutcome(1, 2)) == hash(CycleOutcome(1, 2))
    assert pickle.loads(pickle.dumps(StepCap(4))) == StepCap(4)


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
            classify_chain(g)
        except ChainClassificationError as err:  # pragma: no cover - failure path
            pytest.fail(f"{emit_graph6(g)}: {err}")


def test_corrected_and_added_catalog_entries():
    # the recursion of the independent-hub case can stop after two arrows;
    # these two graphs realize the added entry at orders 6 and 7
    for g6 in ("ELpw", "FLpzw"):
        assert classify_chain(parse_graph6(g6)).label == "LemH23(x*)"
    # tail-join chain whose final graph keeps the hub-partner edge
    assert classify_chain(parse_graph6("EJfg")).label == "LemH23(w*)"
    # fixed-point biclique chain
    assert classify_chain(parse_graph6("EJaG")).label == "LemH23(v)"


def _catalog_cases():
    """Synthetic chains for every label of the minimum-degree-2, no-full-vertex
    branch, built from the catalog's templates: (label, notes, members,
    outcome). A chain one arrow longer than a Lemma 18/19 chain puts a
    complete graph in front of the same tail. The first image decides the
    split labels: an H2.2 member or a complete graph (in neither H2.2 nor
    H2.3)."""
    K, E = complete, empty_graph
    pji, pjie = chains._pair_join_independents, chains._pair_join_independents_plus_edge
    lem18 = {
        "a": (K(4), E(4)),
        "b": (join(E(2), K(3)), union(E(3), K(2))),
        "c": (chains._k4_minus_e(), union(E(2), K(2))),
        "d": (chains._k4_plus_tail_pair(), union(E(2), path(3))),
    }
    bridge = (chains._bridged_pair(), *lem18["b"])
    square = (cycle(4), K(4), E(4))
    h22 = {n: generate_family(f"h2.2:L1=1,R1={n - 4},seed=0") for n in (5, 6)}
    h1 = generate_family("h1:P1=0,Q1=2,seed=0")  # order 5
    w_star = (
        join(union(K(1), K(2)), E(3)),
        join(path(3), E(3)),
        union(K(1), pji(3)),
    )
    later = dict(zip("abcd", "hijk"))
    fin = []  # (label, notes, members after the start)
    for sub, tail in lem18.items():
        fin += [(f"Lem18({sub})", tail), (f"LemH23({later[sub]})", (K(tail[0].n), *tail))]
    for lem19, lemh23, tail in [
        ("f", "q", (corona_k3_k1(),)),
        ("g", "r", (chains._triangle_with_pendants(7),)),
        ("h", "s", (chains._triangle_with_pendants_plus_edge(6),)),
        ("i", "t", (pji(4),)),
        ("j", "u", (pjie(4),)),
    ]:
        n = tail[0].n
        fin += [(f"Lem19({lem19})", (K(n), *tail)), (f"LemH23({lemh23})", (K(n), K(n), *tail))]
    fin += [
        # f* wins over Lem19(i), whose tail pji(3) it shares
        ("LemH23(f*)", (complete_bipartite(2, 3), pji(3))),
        ("Lem19(i)", (K(5), pji(3))),
        ("Lem19(a)", (h22[5], h1)),
        ("LemH23(a)", (K(5), h1)),
        ("LemH23(l)", (K(5), K(5), h1)),
        # the pentagon is in H2.3 and in H2, and not in H1
        ("LemH23(x*)", (cycle(5), cycle(5))),
        # Lem19(e) wins over LemH23(i), and Lem19(d) over LemH23(p)
        ("Lem19(e)", bridge),
        ("LemH23(p)", (K(5), *bridge)),
        ("Lem19(d)", (chains._house(), *bridge)),
        ("LemH23(o)", (K(5), chains._house(), *bridge)),
        # Lem19(c) wins over LemH23(t)
        ("Lem19(c)", (h22[6], complete_bipartite(2, 4), pji(4))),
        ("LemH23(c)", (K(6), complete_bipartite(2, 4), pji(4))),
        ("LemH23(n)", (K(6), K(6), complete_bipartite(2, 4), pji(4))),
        ("LemH23(w*)", w_star),
        # no H2.2 member has order 4: only a chain of mixed orders gives Lem19(b)
        ("Lem19(b)", (h22[5], *square)),
        ("LemH23(b)", (K(4), *square)),
        ("LemH23(m)", (K(4), K(4), *square)),
        ("H2-nonSP", (h22[5],)),
    ]
    notes = {
        "LemH23(f*)": ("catalog entry corrected to the computed image",),
        "LemH23(w*)": ("catalog entry corrected to the computed image",),
        "LemH23(x*)": ("catalog entry added from the exhaustive sweep",),
    }
    cases = [
        (label, notes.get(label, ()), (cycle(rest[0].n), *rest), TerminatedNonSp(len(rest)))
        for label, rest in fin
    ]
    return cases + [
        ("LemH23(d)", ("constant chain; length zero by convention",), (cycle(5),) * 2, CycleOutcome(0, 1)),
        ("LemH23(d)", (), (cycle(5),) * 3, CycleOutcome(1, 1)),
        ("LemH23(v)", (), (cycle(6), *(complete_bipartite(3, 3),) * 2), CycleOutcome(1, 1)),
    ]


_CATALOG_CASES = _catalog_cases()


def test_catalog_cases_cover_every_label_of_the_degree_two_branch():
    assert len({label for label, *_ in _CATALOG_CASES}) == 37
    # the first images that split the labels
    for n in (5, 6):
        assert recognize_h2(generate_family(f"h2.2:L1=1,R1={n - 4},seed=0"), 2) is not None
    for n in (4, 5, 6):
        assert recognize_h2(complete(n), 2) is None and recognize_h2(complete(n), 3) is None
    assert recognize_h2(complete_bipartite(2, 3), 3) is not None


@pytest.mark.parametrize(
    "label, notes, members, outcome",
    _CATALOG_CASES,
    ids=[f"{i}-{c[0]}" for i, c in enumerate(_CATALOG_CASES)],
)
def test_catalog_labels_of_synthetic_chains(label, notes, members, outcome):
    chain = ChainResult(members, outcome)
    template = classify_chain(members[0], chain, DegreeStats(2, 0))
    assert (template.label, template.notes) == (label, notes)


_THEOREM_LABELS = {
    "Thm14(a)", "Thm14(b)", "Thm14(c)", "Thm14(d)",
    "Thm15(a)", "Thm15(b)", "Thm15(c)",
    "Thm16(a)", "Thm16(b)", "Thm16(c)",
    "Thm17",
}


def test_the_catalog_is_the_one_list_of_labels():
    labels = {
        label
        for n in range(1, 10)
        for rows in chains._catalog(n).values()
        for e in rows
        for label in (e.label, e.later, e.split)
        if label
    }
    assert len(labels) == 48
    assert labels == {label for label, *_ in _CATALOG_CASES} | _THEOREM_LABELS
    # every label a claim of verify expects is cataloged
    by_order = [
        t.check.args[0]
        for t in verify.THEOREMS.values()
        if isinstance(t.check, partial) and t.check.func is verify._check_label_by_order
    ]
    assert len(by_order) == 2
    expected = {label for table in by_order for label in table.values()}
    # _check_thm16 holds its labels in a set literal, compiled to a constant
    thm16 = {
        label
        for const in verify._check_thm16.__code__.co_consts
        if isinstance(const, frozenset)
        for label in const
    }
    assert thm16 == {"Thm16(a)", "Thm16(b)", "Thm16(c)"}
    assert expected | thm16 <= labels


def test_labels_reached_by_the_classes_of_orders_one_to_eight():
    reached = Counter(r["template"] or r["status"] for r in verify.sweep_chains(class_pool(1, 8)))
    assert reached == {
        "H2-nonSP": 829, "Lem18(a)": 1, "Lem18(b)": 1, "Lem19(e)": 1, "Lem19(i)": 6, "Lem19(j)": 3,
        "LemH23(d)": 1, "LemH23(v)": 41, "LemH23(w*)": 12, "LemH23(x*)": 3,
        "Thm14(a)": 1, "Thm14(b)": 1, "Thm14(c)": 5, "Thm14(d)": 1,
        "Thm15(a)": 1, "Thm15(b)": 5, "Thm15(c)": 1,
        "Thm16(a)": 66, "Thm16(b)": 2, "Thm16(c)": 18, "Thm17": 39,
        "not-sp": 10_613, "out-of-characterized-range": 1_947,
    }
