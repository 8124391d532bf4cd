"""Family recognizers, witness validators, and seeded generators."""

from __future__ import annotations

import random

import pytest

from coalition_kit import are_isomorphic, families
from coalition_kit.canon import enumerate_graphs
from coalition_kit.coalition_graph import sc_graph
from coalition_kit.domination import sp_check
from coalition_kit.families import (
    GenerationError,
    H2Witness,
    _f2_try,
    f1_violations,
    f2_violations,
    generate_family,
    h1_violations,
    h2_violations,
    parse_family_spec,
    recognize_f1,
    recognize_f2,
    recognize_h1,
    recognize_h2,
)
from coalition_kit.graphs import (
    bits,
    complete,
    complete_bipartite,
    cycle,
    degree_stats,
    emit_graph6,
    empty_graph,
    path,
    union,
)


def test_f1_path_witness():
    wit = recognize_f1(path(4))
    assert wit is not None
    assert (wit.x, wit.y, wit.w) == (0, 1, 3)
    assert wit.p_set == 0b0100 and wit.q_set == 0
    assert f1_violations(path(4), wit) == []


def test_f1_examples():
    assert recognize_f1(union(complete(2), complete(4))) is not None
    assert recognize_f1(complete_bipartite(1, 3)) is None  # center is full
    assert recognize_f1(complete(2)) is None


def test_given_stats_are_not_recomputed(monkeypatch):
    c5, p4 = cycle(5), path(4)
    c5_stats, p4_stats = degree_stats(c5), degree_stats(p4)
    expected, wit = recognize_f2(c5), recognize_f1(p4)
    monkeypatch.setattr(families, "degree_stats", lambda g: pytest.fail("recomputed"))
    assert expected is not None and recognize_f2(c5, c5_stats) == expected
    assert f1_violations(p4, wit, p4_stats) == []


def test_h1_examples():
    wit = recognize_h1(cycle(4))
    assert wit is not None and wit.q1_set == 0
    assert h1_violations(cycle(4), wit) == []
    assert recognize_h1(complete_bipartite(2, 4)) is not None
    assert recognize_h1(complete(3)) is None


def test_f2_cycle_roles():
    wit = recognize_f2(cycle(4))
    assert wit is not None and wit.subfamily == 1
    assert wit.r1.bit_count() == 1

    wit = recognize_f2(cycle(5))
    assert wit is not None and wit.subfamily == 3
    assert wit.w_set.bit_count() == 2
    assert wit.l1.bit_count() == 1 and wit.r2.bit_count() == 1

    wit = recognize_f2(cycle(6))
    assert wit is not None and wit.subfamily == 3

    assert recognize_f2(cycle(7)) is None
    assert recognize_f2(complete(3)) is None


def test_f2_accepts_the_hub_only_side():
    # singleton-partition graph whose off-side vertices all sit in the hub
    # set; the strict per-side nonemptiness would wrongly reject it
    from coalition_kit.graphs import Graph

    g = Graph.from_edges(
        6, [(0, 4), (0, 5), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)]
    )
    assert sp_check(g).is_sp
    wit = recognize_f2(g)
    assert wit is not None and wit.subfamily == 3
    assert f2_violations(g, wit) == []


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_hub_only_shape_at_every_order(n):
    # order-n generalization of the shape above: a degree-2 vertex with its
    # two branch vertices joined to the whole far side, plus one hub vertex
    # adjacent to all of the far side
    from coalition_kit.graphs import Graph

    edges = [(0, 1), (0, 2)]
    for r in range(4, n):
        edges += [(1, r), (2, r), (3, r)]
    g = Graph.from_edges(n, edges)
    assert degree_stats(g).min_degree == 2 and degree_stats(g).full_count == 0
    assert sp_check(g).is_sp
    wit = recognize_f2(g)
    assert wit is not None and f2_violations(g, wit) == []


def test_h2_examples():
    wit = recognize_h2(complete(4))
    assert wit is not None and wit.subfamily == 1
    assert h2_violations(complete(4), wit) == []

    wit = recognize_h2(cycle(5))
    assert wit is not None and wit.subfamily == 3

    assert recognize_h2(empty_graph(3)) is None


def test_h2_subfamily_pinning():
    bridged = parse_family_spec("h2.3:W=2,seed=0")
    g = generate_family(bridged)
    assert recognize_h2(g, 3) is not None
    assert recognize_h2(complete(4), 1) is not None
    assert recognize_h2(complete(4), 2) is None


@pytest.mark.parametrize(
    "spec",
    [
        "f1:P=1,Q=0,seed=%d",
        "f1:P=0,Q=2,seed=%d",
        "f1:P=2,Q=3,seed=%d",
        "h1:P1=3,Q1=0,seed=%d",
        "h1:P1=1,Q1=2,seed=%d",
        "f2.1:R1=3,seed=%d",
        "f2.2:L1=1,R1=2,seed=%d",
        "f2.2:L1=2,R1=2,seed=%d",
        "f2.3:L1=1,R2=1,seed=%d",
        "f2.3:L1=1,R1=1,R2=1,L2=1,W=1,seed=%d",
        "h2.1:R1=3,seed=%d",
        "h2.2:L1=2,R1=2,seed=%d",
        "h2.3:L1=1,R1=1,R2=1,W=2,seed=%d",
    ],
)
def test_generator_recognizer_closure(spec):
    for seed in range(25):
        generate_family(spec % seed)  # raises GenerationError on failure


def test_generated_witnesses_validate():
    g = generate_family("f1:P=2,Q=2,seed=7")
    assert f1_violations(g, recognize_f1(g)) == []
    g = generate_family("h1:P1=2,Q1=2,seed=7")
    assert h1_violations(g, recognize_h1(g)) == []
    g = generate_family("f2.3:L1=2,R1=1,R2=1,W=1,seed=7")
    assert f2_violations(g, recognize_f2(g)) == []
    g = generate_family("h2.3:L1=1,R1=1,R2=1,W=2,seed=7")
    assert h2_violations(g, recognize_h2(g)) == []


def test_generator_boundary_shapes():
    # two-vertex second side with no interior edge is the bipartite K_{2,3}
    hits = set()
    for seed in range(20):
        g = generate_family(f"f2.1:R1=2,seed={seed}")
        if are_isomorphic(g, complete_bipartite(2, 3)):
            hits.add("plain")
        else:
            hits.add("with-edge")
    assert hits == {"plain", "with-edge"}

    # a single P-vertex with no extra edge toward y gives the 4-path
    assert any(
        are_isomorphic(generate_family(f"f1:P=1,Q=0,seed={seed}"), path(4))
        for seed in range(20)
    )

    # no free choices at all: the bipartite image family shape
    g = generate_family("h1:P1=3,Q1=0,seed=0")
    assert are_isomorphic(g, complete_bipartite(2, 4))


def test_q_pair_stays_edgeless():
    # a two-vertex Q can take no interior edge at all
    for seed in range(10):
        g = generate_family(f"f1:P=0,Q=2,seed={seed}")
        wit = recognize_f1(g)
        assert wit is not None
        q = wit.q_set
        vs = [v for v in range(g.n) if (q >> v) & 1]
        assert not g.has_edge(vs[0], vs[1])


def test_generator_parameter_errors():
    with pytest.raises(GenerationError):
        generate_family("f1:P=0,Q=1,seed=0")
    with pytest.raises(GenerationError):
        generate_family("f1:P=0,Q=0,seed=0")
    with pytest.raises(GenerationError):
        generate_family("f2.2:L1=0,R1=2,seed=0")
    with pytest.raises(GenerationError):
        generate_family("h2.3:W=0,seed=0")


def test_spec_parsing():
    spec = parse_family_spec("f2.3:L1=1,R1=0,R2=1,L2=0,W=2,seed=11")
    assert spec.family == "f2.3" and spec.seed == 11
    assert spec.sizes == {"L1": 1, "R1": 0, "R2": 1, "L2": 0, "W": 2}
    assert str(spec).startswith("f2.3:")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "f9:P=1",
            "unknown family 'f9'; expected one of "
            "['f1', 'f2.1', 'f2.2', 'f2.3', 'h1', 'h2.1', 'h2.2', 'h2.3']",
        ),
        ("f1:P=x", "bad size entry 'P=x'"),
        ("f1:R1=2", "unknown key 'R1' for family f1"),
        # a repeated key, seed included, is an error, not a silent overwrite
        ("f1:P=1,P=2,seed=1", "repeated key 'P'"),
        ("f1:P=1,seed=1,seed=2", "repeated key 'seed'"),
        ("f2.3:L1=1,R2=1,W=1,Seed=1,seed=2", "repeated key 'seed'"),
    ],
)
def test_spec_errors_name_the_entry(text, message):
    with pytest.raises(ValueError) as exc:
        parse_family_spec(text)
    assert str(exc.value).startswith(message)


def _classes(n_max, pred):
    for n in range(2, n_max + 1):
        yield from filter(pred, enumerate_graphs(n))


def test_degree_one_family_matches_sp_exhaustively():
    checked = 0
    for g in _classes(
        6, lambda g: degree_stats(g).min_degree == 1 and degree_stats(g).full_count == 0
    ):
        assert (recognize_f1(g) is not None) == sp_check(g).is_sp
        checked += 1
    assert checked > 0


def test_degree_two_family_matches_sp_exhaustively():
    for g in _classes(
        6, lambda g: degree_stats(g).min_degree == 2 and degree_stats(g).full_count == 0
    ):
        assert (recognize_f2(g) is not None) == sp_check(g).is_sp


def test_images_land_in_the_image_families():
    for g in _classes(
        6, lambda g: degree_stats(g).min_degree == 1 and degree_stats(g).full_count == 0
    ):
        if sp_check(g).is_sp:
            assert recognize_h1(sc_graph(g)) is not None
    for g in _classes(
        6, lambda g: degree_stats(g).min_degree == 2 and degree_stats(g).full_count == 0
    ):
        if sp_check(g).is_sp:
            assert recognize_h2(sc_graph(g)) is not None


# Reference copies of the recognizer searches as they were before the mask
# rewrite: per-bit generators, every (y, z) role order and subfamily tried in
# turn. ``_f2_try`` is the unchanged condition code that ``f2_violations``
# re-checks witnesses with.


def _ref_is_independent(g, mask):
    return all(g.rows[v] & mask == 0 for v in bits(mask))


def _ref_covers(row, mask):
    return row & mask == mask


def _ref_recognize_f2(g):
    stats = degree_stats(g)
    if stats.min_degree != 2 or stats.full_count:
        return None
    for x in range(g.n):
        if g.degree(x) != 2:
            continue
        a, b = list(bits(g.rows[x]))
        for y, z in ((a, b), (b, a)):
            for sub in (1, 2, 3):
                wit = _f2_try(g, x, y, z, sub)
                if wit is not None:
                    return wit
    return None


def _ref_h2_sub1(g):
    vmask = g.vertex_mask
    for x in range(g.n):
        for y in range(g.n):
            if y == x or not g.has_edge(x, y):
                continue
            for z in range(y + 1, g.n):
                if z == x or not g.has_edge(x, z) or not g.has_edge(y, z):
                    continue
                r1 = vmask ^ (1 << x) ^ (1 << y) ^ (1 << z)
                if r1 == 0 or not _ref_is_independent(g, r1):
                    continue
                if all(_ref_covers(g.rows[v], (1 << y) | (1 << z)) for v in bits(r1)):
                    return H2Witness(1, x, y, z, r1=r1)
    return None


def _ref_h2_sub2(g):
    vmask = g.vertex_mask
    for y in range(g.n):
        for x in bits(g.rows[y]):
            for z in bits(g.rows[y]):
                if z == x or g.has_edge(x, z):
                    continue
                vx = vmask ^ (1 << x) ^ (1 << y) ^ (1 << z)
                r1 = vx & g.rows[y]
                l1 = vx & ~g.rows[y]
                if r1 == 0 or l1 == 0:
                    continue
                if not _ref_is_independent(g, l1 | r1):
                    continue
                if not _ref_covers(g.rows[z], l1):
                    continue
                allowed = (1 << x) | (1 << z)
                if any(g.rows[v] & ~allowed for v in bits(l1)):
                    continue
                return H2Witness(2, x, y, z, l1=l1, r1=r1)
    return None


def _ref_h2_sub3(g):
    vmask = g.vertex_mask
    for x in range(g.n):
        w = g.rows[x]
        if w == 0:
            continue
        outside = vmask ^ (1 << x) ^ w
        for y in bits(outside):
            for z in bits(outside):
                if z <= y:
                    continue
                rest = outside ^ (1 << y) ^ (1 << z)
                if not _ref_is_independent(g, w | rest):
                    continue
                if any(g.rows[v] & ((1 << y) | (1 << z)) == 0 for v in bits(rest)):
                    continue
                return H2Witness(
                    3,
                    x,
                    y,
                    z,
                    w_set=w,
                    l1=rest & g.rows[y] & ~g.rows[z],
                    r1=rest & g.rows[y] & g.rows[z],
                    r2=rest & g.rows[z] & ~g.rows[y],
                )
    return None


def _ref_recognize_h2(g, subfamily=None):
    searchers = {1: _ref_h2_sub1, 2: _ref_h2_sub2, 3: _ref_h2_sub3}
    for sub in (subfamily,) if subfamily else (1, 2, 3):
        wit = searchers[sub](g)
        if wit is not None:
            return wit
    return None


def _classes_and_images():
    # every class of orders 1-7, as enumerated and relabeled at random, and
    # the singleton-coalition images of both
    rng = random.Random(17)
    for n in range(1, 8):
        for cls in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for g in (cls, cls.relabel(perm)):
                yield g
                if sp_check(g).is_sp:
                    yield sc_graph(g)


def test_recognizers_return_the_reference_witnesses():
    checked = hits = 0
    for g in _classes_and_images():
        expected = _ref_recognize_f2(g)
        assert recognize_f2(g) == expected, emit_graph6(g)
        assert recognize_f2(g, degree_stats(g)) == expected, emit_graph6(g)
        hits += expected is not None
        for sub in (None, 1, 2, 3):
            assert recognize_h2(g, sub) == _ref_recognize_h2(g, sub), (emit_graph6(g), sub)
        checked += 1
    assert checked > 2 * 1252 and hits > 0
