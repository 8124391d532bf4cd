"""Bit-matrix graphs, graph6 interchange, and stock graph constructions.

Vertices are 0-indexed integers. A graph of order n keeps one int per
vertex; bit v of row u is set iff uv is an edge. Vertex sets throughout the
package are plain int bitmasks over the same indexing, so set algebra is
word algebra (union ``|``, intersection ``&``, complement against
``g.vertex_mask``).

One rule decides which rows are validated. Rows from outside the package
arrive through ``Graph(n, rows)``, which checks them: order, row count,
bits in range, no self-loops, symmetry. Rows the package builds are
trusted and go through ``Graph._trusted``, which checks the order only.
Each builder checks its own input instead (the graph6 text, the edges of
``from_edges``, the permutation of ``relabel``) and from valid input
builds rows that are in range, loop-free and symmetric.
``tests/test_graphs.py`` rebuilds the graphs of every builder with
``Graph(n, rows)``.

graph6 records and canonical codes (``canon.graph_from_code``) decode
through byte tables: for each body byte position of an order and each byte
value, one precomputed int holds the rows that byte's pair bits set, row v
at bit v*s, with the row stride s = max(n, 8). Decoding ORs one entry per
body byte; up to order 8 the int's little-endian bytes are the rows, and
above it the rows are shifted out n bits at a time. An order's tables are
built on its first decode, never at import; order 32 in graph6 takes under
1 MB.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate
from operator import getitem
from typing import Iterable, Iterator, NamedTuple

from .limits import ORDER_MAX


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex collection."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Vertices of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_order(n: int) -> None:
    if not 1 <= n <= ORDER_MAX:
        raise ValueError(f"order must be in 1..ORDER_MAX = {ORDER_MAX}, got {n}")


def _first_asymmetric_pair(rows: tuple[int, ...]) -> tuple[int, int] | None:
    """The first (u, v), rows in order and v ascending, with v in row u but
    not u in row v, or None for symmetric rows."""
    for u, row in enumerate(rows):
        while row:
            low = row & -row
            v = low.bit_length() - 1
            if not (rows[v] >> u) & 1:
                return u, v
            row ^= low
    return None


class Graph:
    """Simple undirected graph as a symmetric adjacency bit-matrix.

    A value: equal and hashed by ``(n, rows)``, fields read-only."""

    __slots__ = ("n", "rows")
    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: tuple[int, ...]) -> None:
        _check_order(n)
        if len(rows) != n:
            raise ValueError("row count does not match order")
        full = (1 << n) - 1
        for u, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {u} has bits at or above the order")
            if (row >> u) & 1:
                raise ValueError(f"self-loop at vertex {u}")
        pair = _first_asymmetric_pair(rows)
        if pair is not None:
            raise ValueError(f"asymmetric adjacency at ({pair[0]},{pair[1]})")
        _set_n(self, n)
        _set_rows(self, rows)

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """A graph from rows the package built symmetric, loop-free and in
        range; only the order is checked."""
        _check_order(n)
        g = object.__new__(cls)
        # the slot descriptors write past the read-only __setattr__
        _set_n(g, n)
        _set_rows(g, rows)
        return g

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, rows={self.rows!r})"

    def __reduce__(self) -> tuple:
        return Graph, (self.n, self.rows)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph._trusted(n, tuple(rows))

    # -- basic queries -----------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.rows[u]):
                if u < v:
                    yield (u, v)

    def is_full(self, v: int) -> bool:
        """A full vertex is adjacent to every other vertex."""
        return self.rows[v] == self.vertex_mask ^ (1 << v)

    # -- derived graphs ----------------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("self-loop")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._trusted(self.n, tuple(rows))

    def without_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._trusted(self.n, tuple(rows))

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Image under the permutation ``perm`` (perm[old] = new)."""
        p = list(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("not a permutation of the vertices")
        rows = [0] * self.n
        for u in range(self.n):
            for v in bits(self.rows[u]):
                rows[p[u]] |= 1 << p[v]
        return Graph._trusted(self.n, tuple(rows))

    def induced(self, mask: int) -> "Graph":
        """Subgraph induced by the vertices of ``mask``, relabeled to 0..k-1."""
        keep = list(bits(mask & self.vertex_mask))
        if not keep:
            raise ValueError("induced subgraph must keep at least one vertex")
        index = {v: i for i, v in enumerate(keep)}
        rows = [0] * len(keep)
        for v in keep:
            for u in bits(self.rows[v] & mask):
                rows[index[v]] |= 1 << index[u]
        return Graph._trusted(len(keep), tuple(rows))

    def delete_vertex(self, v: int) -> "Graph":
        return self.induced(self.vertex_mask ^ (1 << v))


_set_n = Graph.n.__set__
_set_rows = Graph.rows.__set__


class DegreeStats(NamedTuple):
    """Minimum degree plus the set of full vertices."""

    min_degree: int
    full_vertices: int  # bitmask

    @property
    def full_count(self) -> int:
        return self.full_vertices.bit_count()


def degree_stats(g: Graph) -> DegreeStats:
    top = g.n - 1
    low = top
    full = 0
    for v, row in enumerate(g.rows):
        d = row.bit_count()
        if d < low:
            low = d
        if d == top:
            full |= 1 << v
    return DegreeStats(low, full)


# ---------------------------------------------------------------------------
# graph6 interchange
# ---------------------------------------------------------------------------
#
# One graph per ASCII line: first byte order+63, then the upper triangle
# x(0,1), x(0,2), x(1,2), x(0,3), ... packed column-major, 6 bits per byte
# (most significant first), each byte +63, padding bits zero.


class Graph6Error(ValueError):
    """Raised for any malformed graph6 record."""


@lru_cache(maxsize=None)
def _byte_tables(
    n: int, width: int, offset: int, column_major: bool
) -> tuple[tuple[int | None, ...], ...]:
    """Decoding tables for an order-n body of ``width``-bit values, each
    stored as a byte ``offset`` above its value.

    The body holds the upper triangle pairs column-major, x(0,1), x(0,2),
    x(1,2), ... (graph6), or row-major, x(0,1), x(0,2), ..., x(1,2), ...
    (canonical codes), most significant bit first. The table of each body
    byte position maps a stored byte to the packed rows of the pairs its
    value sets: row v at bits v*s .. v*s+n-1, with the row stride s =
    max(n, 8), so that up to order 8 each row is one byte. The entry is
    None where the value sets a padding bit, and at the ``offset`` bytes
    below the values; there is none for the bytes above them.
    """
    s = max(n, 8)
    if column_major:
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tables = []
    for start in range(0, len(pairs), width):
        # the edge bits of each byte bit, the most significant first
        edge_bits: list[int | None] = [None] * width
        for k, (i, j) in enumerate(pairs[start : start + width]):
            edge_bits[k] = (1 << (i * s + j)) | (1 << (j * s + i))
        entries: list[int | None] = [0] * (1 << width)
        for value in range(1, 1 << width):
            low = value & -value
            rest, bit = entries[value ^ low], edge_bits[width - low.bit_length()]
            entries[value] = None if rest is None or bit is None else rest | bit
        tables.append((None,) * offset + tuple(entries))
    return tuple(tables)


def _graph_from_body(
    n: int, tables: tuple[tuple[int | None, ...], ...], body: bytes
) -> Graph | None:
    """The order-n graph whose body bytes select one entry of ``tables``
    each, or None when a byte has no entry; graph6 records and canonical
    codes decode through it, and the caller checks the byte count.

    The rows need no validation: every pair sets its bit in both rows, so
    they come out in range, loop-free and symmetric.
    """
    try:
        # distinct pairs set distinct bits, so summing the entries ORs them;
        # a None entry raises TypeError, a byte past the table IndexError
        x = sum(map(getitem, tables, body))
    except (TypeError, IndexError):
        return None
    if n <= 8:
        return Graph._trusted(n, tuple(x.to_bytes(n, "little")))
    mask = (1 << n) - 1
    return Graph._trusted(n, tuple([(x >> s) & mask for s in range(0, n * n, n)]))


_BODY_BYTES = bytes(range(63, 127))
# the bytes ``str.strip`` removes from an ASCII line, line ends aside
_LINE_SPACE = b"\t\x0b\x0c\x1c\x1d\x1e\x1f "


def parse_graph6(text: str) -> Graph:
    """Decode a single graph6 record of order 1..32."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 record")
    data = s.encode("ascii", errors="strict") if s.isascii() else None
    if data is None:
        raise Graph6Error("graph6 record contains non-ASCII bytes")
    head = data[0]
    if head == 126:
        raise Graph6Error(f"order above ORDER_MAX = {ORDER_MAX} is not supported")
    n = head - 63
    if n < 1:
        raise Graph6Error(f"order byte out of range: {head}")
    if n > ORDER_MAX:
        raise Graph6Error(f"order {n} above ORDER_MAX = {ORDER_MAX} is not supported")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 < need:
        raise Graph6Error(f"record too short: {len(data) - 1} body bytes, expected {need}")
    if len(data) - 1 > need:
        raise Graph6Error(f"trailing garbage after {need} body bytes")
    body = data[1:]
    # ahead of the table lookup, which takes only bytes 63..126
    stray = body.translate(None, _BODY_BYTES)
    if stray:
        raise Graph6Error(f"body byte out of range: {stray[0]}")
    g = _graph_from_body(n, _byte_tables(n, 6, 63, True), body)
    if g is None:
        raise Graph6Error("nonzero padding bits")
    return g


# each 6-bit value with its bits reversed, stored as a graph6 byte
_REVERSED_BYTE = tuple(int(f"{v:06b}"[::-1], 2) + 63 for v in range(64))


def emit_graph6(g: Graph) -> str:
    """Encode a graph of order <= 32 as a graph6 record.

    The body is built as one int whose bit k is the k-th body bit: column
    j, the bits of row j below j, goes in at offset j(j-1)/2. Each 6-bit
    group then reads through a bit-reversal table, since graph6 puts a
    group's first bit most significant."""
    x = 0
    shift = 0
    for j, row in enumerate(g.rows):
        x |= (row & ((1 << j) - 1)) << shift
        shift += j
    return bytes(
        [g.n + 63, *[_REVERSED_BYTE[(x >> k) & 63] for k in range(0, shift, 6)]]
    ).decode("ascii")


class Graph6Lines:
    """Bytes ``start``..``stop`` of a graph6 file, one record per line: the
    pool of a ``--file`` run, or a chunk of one.

    ``data`` is the whole file, so a chunk can number its lines. A line
    ends at \\n, \\r or \\r\\n, as in a text-mode read, and the ranges of
    ``cut`` start and end on line ends.
    """

    __slots__ = ("path", "data", "start", "stop")

    def __init__(self, path: str, data: bytes, start: int, stop: int) -> None:
        self.path = path
        self.data = data
        self.start = start
        self.stop = stop

    @classmethod
    def read(cls, path: str) -> "Graph6Lines":
        with open(path, "rb") as fh:
            data = fh.read()
        return cls(path, data, 0, len(data))

    def __len__(self) -> int:
        """The number of lines in the range, as ``bytes.splitlines`` counts
        them: its line ends, and a last line without one."""
        ends = self._line_ends(self.start, self.stop)
        return ends + (self.stop > self.start and self.data[self.stop - 1] not in b"\r\n")

    def _line_ends(self, start: int, stop: int) -> int:
        """The line ends in bytes ``start``..``stop``, a \\r\\n counting once."""
        data = self.data
        return (
            data.count(b"\n", start, stop)
            + data.count(b"\r", start, stop)
            - data.count(b"\r\n", start, stop)
        )

    def cut(self, count: int) -> list["Graph6Lines"]:
        """At most ``count`` nonempty ranges that cover this one in order,
        each ending where the line holding the last byte of its share of
        the bytes ends, so that lines of one length are shared out evenly."""
        data, cuts = self.data, [self.start]
        for k in range(1, count):
            at = max(self.start + k * (self.stop - self.start) // count - 1, cuts[-1])
            nl = data.find(b"\n", at, self.stop)
            cr = data.find(b"\r", at, self.stop if nl < 0 else nl)
            end = nl if cr < 0 else cr
            if end < 0:
                break  # the rest is one line
            end += 2 if data[end : end + 2] == b"\r\n" else 1
            if end < self.stop:
                cuts.append(end)
        cuts.append(self.stop)
        return [Graph6Lines(self.path, data, a, b) for a, b in zip(cuts, cuts[1:]) if a < b]

    def split(self, size: int) -> list["Graph6Lines"]:
        """Ranges of ``size`` lines each, the last of at most ``size``, that
        cover this one in order."""
        lines = self.data[self.start : self.stop].splitlines(keepends=True)
        ends = list(accumulate(map(len, lines), initial=self.start))
        cuts = ends[::size]
        if cuts[-1] != self.stop:
            cuts.append(self.stop)
        return [Graph6Lines(self.path, self.data, a, b) for a, b in zip(cuts, cuts[1:])]

    def _nonblank(self) -> Iterator[tuple[int, str]]:
        """Each nonblank line's index in the range, from 0, and its text
        without the surrounding whitespace. Bytes outside ASCII are kept as
        lone surrogates, so ``parse_graph6`` reports them as a malformed
        record."""
        for k, line in enumerate(self.data[self.start : self.stop].splitlines()):
            # as text, so that str.strip removes what a text-mode read's would
            text = line.decode("ascii", "surrogateescape").strip()
            if text:
                yield k, text

    def _first_line(self) -> int:
        """The file's number of the range's first line."""
        return self._line_ends(0, self.start) + 1

    def parse(self) -> list[tuple[Graph, str]]:
        """Each nonblank line's graph and graph6 text, without the
        surrounding whitespace and the header. A line that parses is the
        one graph6 encoding of its graph, since set padding bits and stray
        bytes are rejected.

        Each line is decoded once, as bytes: its order byte gives its
        length and tables, and the tables check its body (a byte outside
        63..126 or a set padding bit has no entry). At the first line they
        reject, the range goes to ``_parse_each``, so a malformed record
        raises ``parse_graph6``'s ``Graph6Error``, prefixed with the path
        and line number.
        """
        layouts: dict[int, tuple[int, int, tuple]] = {}  # order byte: n, length, tables
        out = []
        for line in self.data[self.start : self.stop].splitlines():
            record = line.strip(_LINE_SPACE)
            if not record:
                continue
            record = record.removeprefix(b">>graph6<<")
            try:
                n, length, tables = layouts[record[0]]
            except (IndexError, KeyError):  # a header alone, or an order byte first seen
                n = record[0] - 63 if record else 0
                if not 1 <= n <= ORDER_MAX:
                    return self._parse_each()
                length = 1 + (n * (n - 1) // 2 + 5) // 6
                tables = _byte_tables(n, 6, 63, True)
                layouts[record[0]] = n, length, tables
            g = _graph_from_body(n, tables, record[1:]) if len(record) == length else None
            if g is None:
                return self._parse_each()
            out.append((g, record.decode("ascii")))
        return out

    def _parse_each(self) -> list[tuple[Graph, str]]:
        """``parse`` by ``parse_graph6``, one line's text at a time, which
        names what is wrong with a malformed record."""
        out = []
        for k, text in self._nonblank():
            try:
                out.append((parse_graph6(text), text.removeprefix(">>graph6<<")))
            except Graph6Error as exc:
                raise Graph6Error(f"{self.path}:{self._first_line() + k}: {exc}") from exc
        return out

    def check(self) -> None:
        """Raise what ``parse`` raises, if it raises, without building a
        graph: one scan of the bytes by ``_lines_pattern``, and ``parse``
        only when the scan rejects them, so the error is parse's own."""
        if _lines_pattern().fullmatch(self.data, self.start, self.stop) is None:
            self.parse()

    def line_numbers(self) -> list[int]:
        """The file's line number of each record ``parse`` returns."""
        first = self._first_line()
        return [first + k for k, _ in self._nonblank()]


@lru_cache(maxsize=None)
def _lines_pattern() -> re.Pattern:
    """The byte ranges that ``Graph6Lines.parse`` accepts, built at first
    use: lines of whitespace that ``str.strip`` removes around an optional
    record, the record an optional ``>>graph6<<`` header, an order byte of
    1..ORDER_MAX, then that order's body bytes, the last with its padding
    bits clear.

    Every quantifier is possessive and every line atomic, so a scan never
    backtracks and takes linear time: \\r\\n is one line end, never \\r
    and then an empty line.
    """
    space = rb"[\t\x0b\x0c\x1c-\x1f ]*+"
    records = []
    for n in range(1, ORDER_MAX + 1):
        pairs = n * (n - 1) // 2
        need = (pairs + 5) // 6
        record = re.escape(bytes([n + 63]))
        if need:
            # the last byte's values that leave the padding bits clear
            step = 1 << (6 * need - pairs)
            last = b"?-~" if step == 1 else re.escape(bytes(range(63, 127, step)))
            record += rb"[?-~]{%d}[%s]" % (need - 1, last)
        records.append(record)
    line = space + b"(?:(?:>>graph6<<)?+(?:" + b"|".join(records) + b"))?+" + space
    return re.compile(b"(?>" + line + rb"(?:\r\n?+|\n))*+" + line)


def read_graph6_file(path: str) -> list[Graph]:
    """Parse every nonblank line of a graph6 file."""
    return [g for g, _ in Graph6Lines.read(path).parse()]


# ---------------------------------------------------------------------------
# Stock constructions
# ---------------------------------------------------------------------------


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("order must be positive")
    full = (1 << n) - 1
    return Graph._trusted(n, tuple(full ^ (1 << v) for v in range(n)))


def empty_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("order must be positive")
    return Graph._trusted(n, (0,) * n)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need order >= 3")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("order must be positive")
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both sides must be positive")
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; the right operand is relabeled above the left."""
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph._trusted(g.n + h.n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every cross edge."""
    u = union(g, h)
    left = (1 << g.n) - 1
    right = u.vertex_mask ^ left
    rows = [
        (row | right) if v < g.n else (row | left)
        for v, row in enumerate(u.rows)
    ]
    return Graph._trusted(u.n, tuple(rows))


def corona_k3_k1() -> Graph:
    """Triangle with one pendant vertex attached to each triangle vertex."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


# ---------------------------------------------------------------------------
# Named-graph expressions
# ---------------------------------------------------------------------------
#
# Grammar: K(n), Kbar(n), C(n) with n>=3, P(n), Kbip(a,b), union(s,t),
# join(s,t), corona_k3_k1.


class NamedGraphError(ValueError):
    """Raised for unparsable or invalid named-graph expressions."""


def _tokenize(expr: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(expr):
        c = expr[i]
        if c.isspace():
            i += 1
        elif c in "(),":
            tokens.append(c)
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < len(expr) and (expr[j].isalnum() or expr[j] == "_"):
                j += 1
            tokens.append(expr[i:j])
            i = j
        else:
            raise NamedGraphError(f"unexpected character {c!r} in expression")
    return tokens


class _NamedParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise NamedGraphError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise NamedGraphError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse_int(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise NamedGraphError(f"expected an integer, got {tok!r}")
        return int(tok)

    def parse_graph(self) -> Graph:
        name = self.take()
        if name == "corona_k3_k1":
            return corona_k3_k1()
        self.take("(")
        if name == "K":
            g = complete(self._positive_int("K"))
        elif name == "Kbar":
            g = empty_graph(self._positive_int("Kbar"))
        elif name == "C":
            k = self._positive_int("C")
            if k < 3:
                raise NamedGraphError("C(n) needs n >= 3")
            g = cycle(k)
        elif name == "P":
            g = path(self._positive_int("P"))
        elif name == "Kbip":
            a = self._positive_int("Kbip")
            self.take(",")
            b = self._positive_int("Kbip")
            g = complete_bipartite(a, b)
        elif name == "union":
            left = self.parse_graph()
            self.take(",")
            g = union(left, self.parse_graph())
        elif name == "join":
            left = self.parse_graph()
            self.take(",")
            g = join(left, self.parse_graph())
        else:
            raise NamedGraphError(f"unknown graph name {name!r}")
        self.take(")")
        return g

    def _positive_int(self, name: str) -> int:
        k = self.parse_int()
        if k < 1:
            raise NamedGraphError(f"{name} needs a positive order")
        return k


def build_named(expr: str) -> Graph:
    """Build a stock graph from an expression like ``join(Kbar(2), K(3))``."""
    parser = _NamedParser(_tokenize(expr))
    g = parser.parse_graph()
    if parser.peek() is not None:
        raise NamedGraphError(f"trailing tokens after expression: {parser.peek()!r}")
    return g
