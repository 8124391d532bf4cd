"""Pure and compiled kernels must emit byte-identical codes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import graphs
from coalition_kit import kernel as pure
from coalition_kit.canon import _extend_codes

fast = pytest.importorskip("coalition_kit._fastkernel")


@settings(max_examples=400)
@given(graphs(max_n=12))
def test_codes_agree(g):
    assert pure.canonical_code(g.n, g.rows) == fast.canonical_code(g.n, g.rows)


def test_enumerations_agree():
    pure_codes = fast_codes = [pure.canonical_code(1, (0,))]
    for n in range(2, 7):
        pure_codes = _extend_codes(pure_codes, n, pure.canonical_code)
        fast_codes = _extend_codes(fast_codes, n, fast.canonical_code)
        assert pure_codes == fast_codes


def test_compiled_flag():
    assert fast.IS_COMPILED and not pure.IS_COMPILED
