"""Spot checks above the exhaustive-enumeration range.

The characterizations hold for every order; enumeration stops at
ENUM_MAX = 9. These tests probe orders 8 through 12 with generated family
members, and orders 8 and 9 with a small random sample against the exact
partition search (which reaches order 9).
"""

from __future__ import annotations

import random

from conftest import graph_from_mask
from coalition_kit import (
    coalition_number_exact,
    generate_family,
    recognize_f1,
    recognize_f2,
    recognize_h1,
    recognize_h2,
    sc_graph,
    sp_check,
)
from coalition_kit.families import FamilySpec


def _f1_specs():
    for order in range(8, 13):
        rest = order - 3
        for seed in range(3):
            yield FamilySpec("f1", {"P": rest, "Q": 0}, seed)
            yield FamilySpec("f1", {"P": rest - 2, "Q": 2}, seed)
            yield FamilySpec("f1", {"P": rest - 3, "Q": 3}, seed)


def _f2_specs():
    for order in range(8, 13):
        rest = order - 3
        for seed in range(3):
            yield FamilySpec("f2.1", {"R1": rest}, seed)
            yield FamilySpec("f2.2", {"L1": 2, "R1": rest - 2}, seed)
            yield FamilySpec("f2.3", {"L1": 1, "R1": rest - 3, "R2": 1, "W": 1}, seed)
            yield FamilySpec("f2.3", {"L1": 2, "R2": 2, "L2": 1, "W": rest - 5}, seed)


def test_degree_one_family_members_are_sp_above_order_seven():
    for spec in _f1_specs():
        g = generate_family(spec)
        assert g.n >= 8
        assert recognize_f1(g) is not None, str(spec)
        assert sp_check(g).is_sp, str(spec)
        assert recognize_h1(sc_graph(g)) is not None, str(spec)


def test_degree_two_family_members_are_sp_above_order_seven():
    for spec in _f2_specs():
        g = generate_family(spec)
        assert g.n >= 8
        assert recognize_f2(g) is not None, str(spec)
        assert sp_check(g).is_sp, str(spec)
        assert recognize_h2(sc_graph(g)) is not None, str(spec)


def test_sp_matches_exact_search_on_random_order_eight_and_nine():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.choice([8, 9])
        g = graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))
        result = coalition_number_exact(g)
        assert sp_check(g).is_sp == (result.value == n)
        if result.witness is not None:
            assert result.witness.k == result.value
