"""graph6 interchange, cross-checked against networkx as an independent codec."""

from __future__ import annotations

import time

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import graphs
from coalition_kit.graphs import (
    Graph,
    Graph6Error,
    Graph6Lines,
    _lines_pattern,
    complete,
    empty_graph,
    emit_graph6,
    parse_graph6,
    path,
    read_graph6_file,
)


def nx_emit(g: Graph) -> str:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


def nx_parse(s: str) -> Graph:
    h = nx.from_graph6_bytes(s.encode())
    return Graph.from_edges(h.number_of_nodes(), list(h.edges()))


def test_hand_encoded_examples():
    assert parse_graph6("C~") == complete(4)
    assert parse_graph6("C?") == empty_graph(4)
    assert parse_graph6("@") == complete(1)
    assert parse_graph6("A?") == empty_graph(2)
    # cross-check the same four against the independent codec
    assert nx_emit(complete(4)) == "C~"
    assert nx_emit(empty_graph(4)) == "C?"
    assert nx_emit(complete(1)) == "@"
    assert nx_emit(empty_graph(2)) == "A?"


def test_emit_examples():
    assert emit_graph6(complete(1)) == "@"
    assert emit_graph6(empty_graph(2)) == "A?"
    assert emit_graph6(path(4)) == nx_emit(path(4))


def test_header_is_stripped():
    assert parse_graph6(">>graph6<<C~") == complete(4)


@settings(max_examples=300)
@given(graphs(max_n=32))
def test_round_trip(g):
    assert parse_graph6(emit_graph6(g)) == g


@settings(max_examples=150)
@given(graphs(max_n=20))
def test_matches_independent_codec(g):
    s = emit_graph6(g)
    assert s == nx_emit(g)
    assert nx_parse(s) == g


@settings(max_examples=150)
@given(graphs(max_n=32))
def test_emit_parse_emit_identity(g):
    s = emit_graph6(g)
    assert emit_graph6(parse_graph6(s)) == s


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        pytest.param("~~?", "order above ORDER_MAX = 32", id="~~?-order above 32"),
        ("a", "order 34 above"),
        ("C", "too short"),
        ("C~~", "trailing garbage"),
        ("B!", "out of range"),
        (">", "order byte out of range"),
    ],
)
def test_malformed_records_report_distinctly(text, fragment):
    with pytest.raises(Graph6Error) as err:
        parse_graph6(text)
    assert fragment in str(err.value)


def test_nonzero_padding_rejected():
    # K1bar-pair record with stray bits in the padding area
    good = emit_graph6(empty_graph(2))  # "A?"
    bad = good[0] + chr(ord(good[1]) + 1)  # flips a padding bit
    with pytest.raises(Graph6Error, match="^nonzero padding bits$"):
        parse_graph6(bad)


def test_read_graph6_file(tmp_path):
    p = tmp_path / "graphs.g6"
    p.write_text("C~\n\nC?\n")
    gs = list(read_graph6_file(str(p)))
    assert gs == [complete(4), empty_graph(4)]
    p.write_text("C~\nC\n")
    with pytest.raises(Graph6Error) as err:
        list(read_graph6_file(str(p)))
    assert ":2:" in str(err.value)


def test_read_graph6_file_reports_non_ascii_bytes(tmp_path):
    p = tmp_path / "graphs.g6"
    p.write_bytes(b"C~\nB\xc3\xa9\n")
    with pytest.raises(Graph6Error) as err:
        list(read_graph6_file(str(p)))
    assert str(err.value) == f"{p}:2: graph6 record contains non-ASCII bytes"


# records with every line end, blank lines, a header and no final newline
_MIXED = b"C~\r\n\r\n>>graph6<<C?\rBw\n \x1c\r\r\nDQc\r\n\rA_\n\nC~\r\r \t\nBW"


@pytest.mark.parametrize("count", range(1, len(_MIXED) + 2))
def test_cut_ranges_tile_a_file_on_line_ends(count):
    whole = Graph6Lines("mixed.g6", _MIXED, 0, len(_MIXED))
    ranges = whole.cut(count)
    assert 1 <= len(ranges) <= count
    assert ranges[0].start == 0 and ranges[-1].stop == len(_MIXED)
    for before, after in zip(ranges, ranges[1:]):
        assert before.stop == after.start
        # a range starts after a line end, and never inside a \r\n
        assert _MIXED[after.start - 1] in b"\r\n"
        assert _MIXED[after.start - 1 : after.start + 1] != b"\r\n"
    assert [pair for r in ranges for pair in r.parse()] == whole.parse()
    assert [text for _, text in whole.parse()] == ["C~", "C?", "Bw", "DQc", "A_", "C~", "BW"]
    # a range's length is its line count, as splitlines counts lines
    assert len(whole) == 14
    for r in [whole, *ranges]:
        assert len(r) == len(_MIXED[r.start : r.stop].splitlines())


@pytest.mark.parametrize("size", range(1, 16))
def test_split_ranges_hold_size_lines_each(size):
    # the lines of the mixed file in order, each range but the last holding
    # exactly ``size`` of them, as splitlines counts them
    whole = Graph6Lines("mixed.g6", _MIXED, 0, len(_MIXED))
    ranges = whole.split(size)
    assert ranges[0].start == 0 and ranges[-1].stop == len(_MIXED)
    assert all(before.stop == after.start for before, after in zip(ranges, ranges[1:]))
    assert [len(r) for r in ranges] == [size] * (14 // size) + [14 % size] * (14 % size > 0)
    assert [pair for r in ranges for pair in r.parse()] == whole.parse()
    # a range of the file splits into ranges of its own lines
    middle = Graph6Lines("mixed.g6", _MIXED, 4, len(_MIXED) - 2)
    assert b"".join(_MIXED[r.start : r.stop] for r in middle.split(size)) == _MIXED[4:-2]


@pytest.mark.parametrize("count", range(1, 12))
def test_a_range_numbers_the_lines_of_the_whole_file(count):
    data = _MIXED.replace(b"A_", b"A?~")  # line 9 as a text-mode read counts
    ranges = Graph6Lines("mixed.g6", data, 0, len(data)).cut(count)
    errors = []
    for r in ranges:
        try:
            r.parse()
        except Graph6Error as exc:
            errors.append(str(exc))
    assert errors == ["mixed.g6:9: trailing garbage after 1 body bytes"]


def _bumped(record: str, by: int) -> bytes:
    """``record`` with its last byte raised by ``by``: a set padding bit,
    another body, or a byte out of range."""
    return record[:-1].encode() + bytes([ord(record[-1]) + by])


_RECORDS = st.builds(emit_graph6, graphs(max_n=32)).map(str.encode)
_BUMPED = st.builds(_bumped, st.builds(emit_graph6, graphs(min_n=2, max_n=32)), st.integers(1, 3))
_ENDS = st.sampled_from([b"\r", b"\n", b"\r\n"])
_SPACES = st.sampled_from([b"", b" ", b"\t", b"\x0b\x0c", b"\x1c\x1d\x1e\x1f"])
# lines that parse, blank ones among them
_LINES = st.builds(
    lambda pad, record, end: pad + record + pad[::-1] + end,
    _SPACES,
    st.one_of(_RECORDS, _RECORDS.map(b">>graph6<<".__add__), st.just(b"")),
    _ENDS,
)
_PIECES = st.one_of(
    _RECORDS,
    _BUMPED,
    _ENDS,
    _SPACES,
    st.sampled_from(
        [b">>graph6<<", b">>graph6", b"<<", b">", b"\xff", b"\xc3\xa9", b"\x85", b"\x00"]
        + [b"~", b"?", b"@", b"\x7f"]
    ),
    st.binary(max_size=3),
)


@st.composite
def _graph6_files(draw) -> bytes:
    """Whole lines, with at most two loose pieces put in among them, so
    that most files parse and many do not."""
    pieces = draw(st.lists(_LINES, max_size=10))
    for piece in draw(st.lists(_PIECES, max_size=2)):
        pieces.insert(draw(st.integers(0, len(pieces))), piece)
    return b"".join(pieces)


def _outcome(call) -> str | None:
    try:
        call()
    except Graph6Error as exc:
        return str(exc)
    return None


_FILE_EXAMPLES = [
    b">>graph6<<>>graph6<<C~\n",  # one header at most
    b">>graph6<< C~\r\n",  # no space after the header
    b">>graph6<< C~",
    b"\x1c>>graph6<<C~\x1f\r\n\r>>graph6<<\n",  # a header alone
    b">>graph6<<",
    b"_" + b"?" * 83,  # order 32
    b"`" + b"?" * 88,  # order 33
    b"C~\nB\x85\n",  # \x85 is whitespace to str.strip, but not in ASCII
    b"C~\n\x85C~\x85\n",
    b"C~\r\nB\xc3\xa9\n",
    b"C~\n~~?\n",  # order byte ~
    b"~",
    b"C~\nB\x7f\n",  # byte 127, one past the tables
    b"\x7f",
]


def _file_examples(test):
    for data in _FILE_EXAMPLES:
        test = example(data)(test)
    return test


@settings(max_examples=600)
@given(_graph6_files())
@_file_examples
def test_the_check_accepts_exactly_what_parse_accepts(data):
    lines = Graph6Lines("pieces.g6", data, 0, len(data))
    error = _outcome(lines.parse)
    assert (_lines_pattern().fullmatch(data) is not None) == (error is None)
    assert _outcome(lines.check) == error


@settings(max_examples=600)
@given(_graph6_files())
@_file_examples
def test_the_range_decode_matches_a_record_at_a_time(data):
    # _parse_each runs parse_graph6 on each nonblank line's text
    lines = Graph6Lines("pieces.g6", data, 0, len(data))
    error = _outcome(lines._parse_each)
    assert _outcome(lines.parse) == error
    if error is None:
        # and a range that parses is decoded once, never handed on
        assert _DecodedOnce("pieces.g6", data, 0, len(data)).parse() == lines._parse_each()


class _DecodedOnce(Graph6Lines):
    __slots__ = ()

    def _parse_each(self):
        raise AssertionError("a range that parses was handed to _parse_each")


def test_the_check_accepts_every_order():
    data = b"".join(
        (emit_graph6(g) + end).encode()
        for n in range(1, 33)
        for g, end in ((complete(n), "\n"), (empty_graph(n), "\r\n"), (path(n), "\r"))
    )
    assert _lines_pattern().fullmatch(data) is not None


@pytest.mark.parametrize("count", range(1, 12))
def test_the_check_of_a_range_raises_its_parse_error(count):
    data = _MIXED.replace(b"A_", b"A?~")
    for r in Graph6Lines("mixed.g6", data, 0, len(data)).cut(count):
        assert _outcome(r.check) == _outcome(r.parse)


def test_the_check_takes_linear_time():
    # each \r\n reads as one line end or as \r and an empty line: a scan
    # that tried both would take exponential time before the bad record
    data = b"\r\n" * 50_000 + b" \t\x1c\r\n" * 50_000 + b"C~\r\nE?\r\n"
    lines = Graph6Lines("long.g6", data, 0, len(data))
    start = time.perf_counter()
    with pytest.raises(Graph6Error, match=r"^long\.g6:100002: record too short"):
        lines.check()
    assert time.perf_counter() - start < 1
