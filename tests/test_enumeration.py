"""Exhaustive small-graph enumeration against an independent dedup oracle."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from conftest import enumerate_with, graph_from_mask, oracle_min_perm_code
from coalition_kit import canon, class_count, enumerate_graphs
from coalition_kit import kernel as pure
from coalition_kit.canon import are_isomorphic, canonical_form, graph_from_code
from coalition_kit.graphs import degree_stats
from coalition_kit.kernel import canonical_code
from coalition_kit.limits import ENUM_MAX

KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def full_extension(parent_codes, n: int) -> list[bytes]:
    """Extend every parent by every neighbourhood of the new vertex."""
    seen = set()
    for code in parent_codes:
        rows = graph_from_code(code).rows
        for mask in range(1 << (n - 1)):
            cand = [r | (1 << (n - 1)) if (mask >> v) & 1 else r for v, r in enumerate(rows)]
            seen.add(canonical_code(n, cand + [mask]))
    return sorted(seen)


def pair_loop_decode(code: bytes) -> tuple[int, ...]:
    """Reference decoder: the rows of a code, read pair by pair."""
    n = code[0]
    rows = [0] * n
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if code[1 + (k >> 3)] & (0x80 >> (k & 7)):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return tuple(rows)


def oracle_class_count(n: int) -> int:
    seen = set()
    for mask in range(1 << (n * (n - 1) // 2)):
        seen.add(oracle_min_perm_code(graph_from_mask(n, mask)))
    return len(seen)


@pytest.mark.parametrize("n", sorted(KNOWN_COUNTS))
def test_census(n):
    assert class_count(n) == KNOWN_COUNTS[n]


@pytest.mark.parametrize("n", sorted(KNOWN_COUNTS))
def test_codes_decode_to_their_class(n):
    for code in canon._codes(n):
        g = graph_from_code(code)
        assert g.rows == pair_loop_decode(code)
        assert canonical_form(g) == code


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_census_against_brute_force_dedup(n):
    assert class_count(n) == oracle_class_count(n)


def test_min_degree_extension_matches_full_extension():
    for n in range(2, 8):
        parents = canon._codes(n - 1)
        assert canon._codes(n) == tuple(full_extension(parents, n))


def test_representatives_are_pairwise_nonisomorphic():
    reps = list(enumerate_graphs(5))
    assert len(reps) == 34
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not are_isomorphic(reps[i], reps[j])


def test_isolated_vertex_classes_match_previous_order():
    # adding one isolated vertex is a bijection between order-(n-1) classes
    # and order-n classes with minimum degree zero
    for n in range(2, 8):
        with_isolated = sum(
            1 for g in enumerate_graphs(n) if degree_stats(g).min_degree == 0
        )
        assert with_isolated == KNOWN_COUNTS[n - 1]


def test_enumeration_cap():
    with pytest.raises(ValueError, match="ENUM_MAX"):
        list(enumerate_graphs(ENUM_MAX + 1))
    with pytest.raises(ValueError):
        class_count(0)


def test_class_codes_run_from_the_least_order_to_the_greatest():
    assert canon.class_codes(3, 5) == [*canon._codes(3), *canon._codes(4), *canon._codes(5)]
    assert canon.class_codes(4, 3) == []


@pytest.mark.parametrize("lo, hi", [(0, 3), (1, ENUM_MAX + 1)])
def test_class_codes_check_the_limit_before_enumerating(monkeypatch, lo, hi):
    monkeypatch.setattr(canon, "_codes", lambda n: pytest.fail(f"order {n} enumerated"))
    with pytest.raises(ValueError, match=f"1..ENUM_MAX = {ENUM_MAX}, got {lo}..{hi}"):
        canon.class_codes(lo, hi)


@pytest.mark.parametrize("compiled", [False, True], ids=["pure", "compiled"])
def test_isolated_vertex_children_get_the_kernels_code(fastkernel, compiled):
    kernel = fastkernel if compiled else pure
    for n in range(1, 9):
        for code in canon._codes(n):
            rows = (*graph_from_code(code).rows, 0)
            assert canon._isolated_child(code) == kernel.canonical_code(n + 1, rows)


def test_stored_minimum_degrees_are_the_classes():
    for n in range(1, 9):
        codes, deltas = canon._classes(n)
        assert list(deltas) == [degree_stats(graph_from_code(c)).min_degree for c in codes]


@pytest.mark.parametrize("max_delta", range(4))
@pytest.mark.parametrize("compiled", [False, True], ids=["pure", "compiled"])
def test_capped_class_codes_keep_the_classes_up_to_the_cap(
    fastkernel, monkeypatch, compiled, max_delta
):
    # the uncapped classes come from the session's cache, each kept or not
    # by the minimum degree of its decoded graph
    kept = {
        n: [c for c in canon._codes(n) if degree_stats(graph_from_code(c)).min_degree <= max_delta]
        for n in range(1, 9)
    }
    enumerate_with(monkeypatch, fastkernel if compiled else pure)
    for lo, hi in [*((1, hi) for hi in range(1, 9)), (5, 7), (8, 8), (4, 3)]:
        want = [c for n in range(lo, hi + 1) for c in kept[n]]
        assert canon.class_codes(lo, hi, max_delta) == want, (lo, hi)


def test_a_second_capped_call_makes_no_kernel_call(monkeypatch):
    calls = []
    real = canon.canonical_code

    def counting(n, rows):
        calls.append(n)
        return real(n, rows)

    enumerate_with(monkeypatch, SimpleNamespace(canonical_code=counting))
    first = canon.class_codes(1, 7, 2)
    assert calls  # the first call enumerates
    calls.clear()
    assert canon.class_codes(1, 7, 2) == first
    assert calls == []
