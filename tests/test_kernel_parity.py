"""Pure and compiled kernels must emit byte-identical codes.

The compiled kernel is the ``fastkernel`` fixture's build; the backend that
``canon`` imported stays the active one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import enumerate_with, graphs
from coalition_kit import canon
from coalition_kit import kernel as pure
from coalition_kit.canon import _extend_codes
from coalition_kit.limits import CANON_MAX, ENUM_MAX


@settings(max_examples=400)
@given(g=graphs(max_n=12))
def test_codes_agree(fastkernel, g):
    assert pure.canonical_code(g.n, g.rows) == fastkernel.canonical_code(g.n, g.rows)


def test_enumerations_agree(fastkernel):
    pure_codes = fast_codes = [pure.canonical_code(1, (0,))]
    for n in range(2, 9):
        pure_codes, pure_deltas = _extend_codes(pure_codes, n, pure.canonical_code)
        fast_codes, fast_deltas = _extend_codes(fast_codes, n, fastkernel.canonical_code)
        assert (pure_codes, pure_deltas) == (fast_codes, fast_deltas)


def test_compiled_enumeration_reaches_order_nine(fastkernel, monkeypatch):
    enumerate_with(monkeypatch, fastkernel)
    assert ENUM_MAX == 9
    assert canon.class_count(9) == 274668  # OEIS A000088
    codes, deltas = tuple(canon.class_pool(9, 9).codes()), canon._classes(9)[1]
    capped = list(canon.class_pool(9, 9, max_delta=2).codes())
    assert capped == [code for code, d in zip(codes, deltas) if d <= 2]
    assert len(capped) == 190423


@pytest.mark.parametrize("n", [0, CANON_MAX + 1])
def test_order_out_of_range_raises_the_same_error(fastkernel, n):
    rows = (0,) * (CANON_MAX + 1)
    messages = []
    for kernel in (pure, fastkernel):
        with pytest.raises(ValueError) as exc:
            kernel.canonical_code(n, rows)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_row_wider_than_a_word_raises(fastkernel):
    with pytest.raises(OverflowError):
        fastkernel.canonical_code(3, (1 << 32, 0, 0))


@pytest.mark.parametrize("compiled", [False, True], ids=["pure", "compiled"])
def test_short_rows_raise(fastkernel, compiled):
    kernel = fastkernel if compiled else pure
    with pytest.raises(IndexError):
        kernel.canonical_code(3, (0, 0))


def test_compiled_flag(fastkernel):
    assert fastkernel.IS_COMPILED and not pure.IS_COMPILED
