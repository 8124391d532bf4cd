"""Byte-table decoding of graph6 records and canonical codes, against the
pair-by-pair decoder it replaced."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalition_kit import canon, graphs
from coalition_kit.canon import canonical_form, class_pool, graph_from_code
from coalition_kit.graphs import (
    Graph,
    Graph6Error,
    Graph6Lines,
    complete,
    emit_graph6,
    empty_graph,
    parse_graph6,
)
from coalition_kit.limits import CANON_MAX


def reference_pair_at(n: int, column_major: bool) -> list[tuple[int, int] | None]:
    """The pair of each bit of an order-n body read as one integer (bit 0 is
    the last body bit), None on the padding bits: 6-bit bytes column-major
    for graph6, 8-bit bytes row-major for canonical codes."""
    width = 6 if column_major else 8
    if column_major:
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    nbits = width * -(-len(pairs) // width)
    return (pairs + [None] * (nbits - len(pairs)))[::-1]


def reference_decode(n: int, values: bytes, column_major: bool) -> Graph | None:
    """The pair-loop decoder: two row updates per set bit, None when a
    padding bit is set."""
    width = 6 if column_major else 8
    x = 0
    for b in values:
        x = (x << width) | b
    pair_at = reference_pair_at(n, column_major)
    rows = [0] * n
    while x:
        low = x & -x
        pair = pair_at[low.bit_length() - 1]
        if pair is None:
            return None
        i, j = pair
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        x ^= low
    return Graph(n, tuple(rows))


def graph6_body(record: str) -> bytes:
    return bytes(ord(c) - 63 for c in record[1:])


@pytest.mark.parametrize("n", range(1, 9))
def test_table_decoders_match_the_pair_loop_on_every_class(n):
    rng = random.Random(1200 + n)
    for code in class_pool(n, n).codes():
        g = graph_from_code(code)
        assert g == reference_decode(n, code[1:], column_major=False)
        perm = list(range(n))
        rng.shuffle(perm)
        for h in (g, g.relabel(perm)):
            record = emit_graph6(h)
            assert parse_graph6(record) == reference_decode(n, graph6_body(record), True) == h


def body_length(n: int, width: int) -> int:
    return -(-(n * (n - 1) // 2) // width)


def _bodies(max_n: int, width: int):
    """(n, body values): any values of ``width`` bits, with the padding bits
    cleared in about half the cases."""

    def body(n: int, raw: bytes, clear: bool) -> tuple[int, bytes]:
        values = bytearray(b & ((1 << width) - 1) for b in raw)
        padding = width * len(values) - n * (n - 1) // 2
        if clear and values:
            values[-1] &= ~((1 << padding) - 1)
        return n, bytes(values)

    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            body,
            st.just(n),
            st.binary(min_size=body_length(n, width), max_size=body_length(n, width)),
            st.booleans(),
        )
    )


@settings(max_examples=300, deadline=None)
@given(_bodies(32, 6))
def test_graph6_tables_match_the_pair_loop(case):
    n, values = case
    record = chr(n + 63) + "".join(chr(b + 63) for b in values)
    expected = reference_decode(n, values, column_major=True)
    if expected is None:
        with pytest.raises(Graph6Error, match="^nonzero padding bits$"):
            parse_graph6(record)
    else:
        assert parse_graph6(record) == expected


@settings(max_examples=300, deadline=None)
@given(_bodies(CANON_MAX, 8))
def test_code_tables_match_the_pair_loop(case):
    n, body = case
    expected = reference_decode(n, body, column_major=False)
    if expected is None:
        with pytest.raises(ValueError, match="^code has nonzero padding bits$"):
            graph_from_code(bytes([n]) + body)
    else:
        assert graph_from_code(bytes([n]) + body) == expected


@pytest.mark.parametrize(
    "code, fragment",
    [
        (b"", "empty code"),
        pytest.param(
            bytes([0]),
            "order must be in 1..CANON_MAX = 16, got 0",
            id="\x00-order must be in 1..16, got 0",
        ),
        pytest.param(
            bytes([17]) + bytes(17),
            "order must be in 1..CANON_MAX = 16, got 17",
            id="\x11" + "\x00" * 17 + "-order must be in 1..16, got 17",
        ),
        (bytes([8]), "needs 4 body bytes, got 0"),
        (bytes([4, 0, 0]), "needs 1 body bytes, got 2"),
        (bytes([4, 0, 0, 0]), "needs 1 body bytes, got 3"),
        (bytes([1, 0]), "needs 0 body bytes, got 1"),
        (bytes([3, 0xFF]), "nonzero padding bits"),
        (bytes([3, 0x1F]), "nonzero padding bits"),
    ],
)
def test_malformed_codes_are_rejected(code, fragment):
    with pytest.raises(ValueError) as err:
        graph_from_code(code)
    assert fragment in str(err.value)


def _stride_graphs(n: int) -> list[Graph]:
    """Empty, complete and three random graphs of order n, so that the
    rows at the edge of a row stride are both full and empty."""
    rng = random.Random(1300 + n)
    out = [empty_graph(n), complete(n)]
    for _ in range(3):
        pairs = [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5]
        out.append(Graph.from_edges(n, pairs))
    return out


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 32])
def test_graph6_rows_at_the_edges_of_the_row_stride(n):
    # the row stride is 8 bits up to order 8, where each row is one byte of
    # the decoded int, and n above it, where the rows come by shifts
    for g in _stride_graphs(n):
        record = emit_graph6(g)
        assert parse_graph6(record) == g
        data = f" {record}\r\n>>graph6<<{record}\n".encode()
        assert Graph6Lines("stride.g6", data, 0, len(data)).parse() == [(g, record)] * 2


@pytest.mark.parametrize("n", [8, 9, 16])
def test_code_rows_match_shifts_and_masks(n):
    stride = max(n, 8)
    tables = graphs._byte_tables(n, 8, 0, False)
    for g in _stride_graphs(n):
        code = canonical_form(g)
        x = sum(table[b] for table, b in zip(tables, code[1:]))
        reference = tuple((x >> (v * stride)) & ((1 << stride) - 1) for v in range(n))
        assert graph_from_code(code).rows == reference
        assert Graph(n, reference) == reference_decode(n, code[1:], column_major=False)


def test_the_classes_of_orders_one_to_eight_are_unchanged():
    # the codes and minimum degrees the enumeration stores, as recorded when
    # rows were still packed n bits apart
    digest = hashlib.sha256()
    for n in range(1, 9):
        codes, deltas = canon._classes(n)
        digest.update(codes)
        digest.update(deltas)
    assert digest.hexdigest() == (
        "3bb4f833ff9c1a24a3d71e2810714c98b33900bfe2c36765e8b06d57a685ee81"
    )
