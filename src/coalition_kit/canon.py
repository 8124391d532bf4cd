"""Canonical forms, isomorphism, and exhaustive enumeration of small graphs.

A canonical code is an order byte followed by the packed upper triangle of
the canonically relabeled adjacency matrix; two graphs of order <= 16 get
equal codes iff they are isomorphic.

The canonical-code kernel is chosen here, once, at import: the compiled
extension ``_fastkernel`` when it is built, else the pure-Python ``kernel``.
Both emit byte-identical codes; ``BACKEND_NAME`` says which one is active.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .graphs import Graph, _byte_tables, _graph_from_body
from .limits import CANON_MAX, ENUM_MAX

try:
    from ._fastkernel import IS_COMPILED, canonical_code
except ImportError:
    from .kernel import IS_COMPILED, canonical_code

BACKEND_NAME = "compiled" if IS_COMPILED else "pure"


def canonical_form(g: Graph) -> bytes:
    """Canonical code of ``g`` (order <= 16)."""
    return canonical_code(g.n, g.rows)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test via canonical-code equality (order <= 16)."""
    if g.n != h.n:
        return False
    if g.n > CANON_MAX:
        raise ValueError(f"isomorphism supports order 1..CANON_MAX = {CANON_MAX}, got {g.n}")
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)


def graph_from_code(code: bytes) -> Graph:
    """Rebuild the graph a canonical code describes.

    Raises ValueError for an empty code, an order outside 1..CANON_MAX, a
    body other than the ceil(n(n-1)/2 / 8) bytes of order n, or a set
    padding bit.
    """
    if not code:
        raise ValueError("empty code")
    n = code[0]
    if not 1 <= n <= CANON_MAX:
        raise ValueError(f"code order must be in 1..CANON_MAX = {CANON_MAX}, got {n}")
    need = (n * (n - 1) // 2 + 7) // 8
    if len(code) - 1 != need:
        raise ValueError(f"order-{n} code needs {need} body bytes, got {len(code) - 1}")
    g = _graph_from_body(n, _byte_tables(n, 8, 0, False), code[1:])
    if g is None:
        raise ValueError("code has nonzero padding bits")
    return g


def _isolated_child(code: bytes) -> bytes:
    """Canonical code of P + K1, from the canonical code of P.

    The new vertex's row is n - 1 zero bits and P's body follows it, so the
    child's body is P's body bits behind those zeros, packed MSB-first. This
    is the code the kernel would give: the degree-0 vertices form the first
    cell of the child's partition; every vertex counts 0 neighbours in them,
    so they never split another cell, and the rest refines as P does; they
    are pairwise twins, so they are individualized in one branch. Every leaf
    of the child's search is thus a leaf of P's search with the isolated
    vertex in front, and the least code keeps that zero row first.
    """
    n = code[0] + 1
    bits = n * (n - 1) // 2
    body = (bits + 7) // 8
    parent_bits = bits - (n - 1)
    value = int.from_bytes(code[1:], "big") >> (-parent_bits % 8)
    return bytes([n]) + (value << (-bits % 8)).to_bytes(body, "big")


def _extend_codes(
    parent_codes: Iterable[bytes],
    n: int,
    kernel: Callable[[int, Sequence[int]], bytes] | None = None,
    max_delta: int | None = None,
) -> tuple[list[bytes], bytes]:
    """Sorted canonical codes of every order-n class of minimum degree at
    most ``max_delta`` (every class by default), from all order-(n-1) codes,
    and each class's minimum degree, one byte per code.

    Every order-n graph has a minimum-degree vertex whose deletion leaves an
    order-(n-1) class, so it suffices to extend each parent P by the
    neighbourhoods that make the new vertex a minimum-degree vertex of the
    child: k neighbours for k <= min degree of P + 1, with every parent
    vertex of degree k - 1 among them. The child's minimum degree is then
    k, so the classes above ``max_delta`` come only from larger k, which is
    skipped. The k = 0 child, P + K1, is coded by ``_isolated_child``.

    Twins of P are vertices whose rows agree outside the pair. They fall
    into classes, and every permutation within a class is an automorphism
    of P, so a neighbourhood taking any s vertices of a class gives the
    same child as one taking the class's first s. Twins have equal degree,
    so a class is wholly forced or wholly free, and only neighbourhoods
    that take a prefix of every class are canonicalized: each vertex
    carries the bit of its previous twin, and those bits over the chosen
    vertices must lie inside the neighbourhood.

    ``kernel`` is the canonical-code function (default: the active
    backend's, looked up at call time).
    """
    code_of = canonical_code if kernel is None else kernel
    new_bit = 1 << (n - 1)
    top = n if max_delta is None else max_delta + 1
    seen: dict[bytes, int] = {}
    for code in parent_codes:
        seen[_isolated_child(code)] = 0
        rows = graph_from_code(code).rows
        degrees = [r.bit_count() for r in rows]
        previous_twin = [0] * len(rows)
        for v in range(1, len(rows)):
            for u in range(v - 1, -1, -1):
                outside = ~((1 << u) | (1 << v))
                if rows[u] & outside == rows[v] & outside:
                    previous_twin[v] = 1 << u
                    break
        for k in range(1, min(min(degrees) + 2, top)):
            forced = [v for v, d in enumerate(degrees) if d == k - 1]
            if len(forced) > k:
                continue
            free = [v for v, d in enumerate(degrees) if d != k - 1]
            forced_mask = sum(1 << v for v in forced)
            forced_rows = [r | new_bit if d == k - 1 else r for r, d in zip(rows, degrees)]
            for extra in combinations(free, k - len(forced)):
                mask = forced_mask
                behind = 0
                for v in extra:
                    mask |= 1 << v
                    behind |= previous_twin[v]
                if behind & ~mask:
                    continue
                cand = forced_rows.copy()
                for v in extra:
                    cand[v] |= new_bit
                cand.append(mask)
                seen[code_of(n, cand)] = k
    codes = sorted(seen)
    return codes, bytes(map(seen.__getitem__, codes))


@lru_cache(maxsize=None)
def _classes(n: int, max_delta: int | None = None) -> tuple[bytes, bytes]:
    """Every order-n class's code of minimum degree at most ``max_delta``
    (every class by default), in code order and packed back to back, and
    each class's minimum degree, one byte per code. The codes of one order
    have one width, so code i is the i-th slice of that width."""
    if n == 1:
        return canonical_code(1, (0,)), bytes(1)
    # the parents are read one at a time, so no order is held unpacked
    codes, deltas = _extend_codes(class_pool(n - 1, n - 1).codes(), n, max_delta=max_delta)
    return b"".join(codes), deltas


class CodePool:
    """Classes ``start``..``stop`` of some orders' packed codes, counted
    across the orders: per order, its codes and minimum degrees as
    ``_classes`` holds them. Only the classes of minimum degree at most
    ``cap`` belong to the pool. A built-in pool, or a chunk of one."""

    __slots__ = ("orders", "cap", "start", "stop")

    def __init__(
        self, orders: tuple[tuple[bytes, bytes], ...], cap: int, start: int, stop: int
    ) -> None:
        self.orders = orders
        self.cap = cap
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        """The number of classes in the range, those above ``cap`` included."""
        return self.stop - self.start

    def cut(self, count: int) -> list["CodePool"]:
        """Ranges of one size, about ``count`` of them, that cover this one
        in order; the last may be shorter, and a range may span two orders."""
        size = max(1, -(-(self.stop - self.start) // count))
        return [
            CodePool(self.orders, self.cap, start, min(start + size, self.stop))
            for start in range(self.start, self.stop, size)
        ]

    def codes(self) -> Iterator[bytes]:
        """The codes of the range's classes of minimum degree at most
        ``cap``, in pool order."""
        first = 0  # the index of the order's first class in the pool
        for codes, deltas in self.orders:
            lo, hi = max(self.start - first, 0), min(self.stop - first, len(deltas))
            first += len(deltas)
            if lo < hi:
                width = len(codes) // len(deltas)
                for i in range(lo, hi):
                    if deltas[i] <= self.cap:
                        yield codes[i * width : (i + 1) * width]

    def parse(self) -> list[tuple[Graph, None]]:
        """Each read code's graph, with no graph6 text."""
        return [(graph_from_code(code), None) for code in self.codes()]


def class_pool(lo: int, hi: int, max_delta: int | None = None) -> CodePool:
    """The isomorphism classes of orders lo..hi, by order and then in code
    order, so runs are deterministic; no order when lo > hi. With
    ``max_delta`` only the classes of minimum degree at most ``max_delta``
    belong to the pool: the lower orders are filtered by their stored
    minimum degree as they are read, and order hi is extended with that cap
    (once per process and cap), so its classes of larger minimum degree are
    never built.

    Orders outside 1..ENUM_MAX raise ValueError before anything is
    enumerated. Larger orders arrive as graph6 files instead.
    """
    if lo < 1 or hi > ENUM_MAX:
        raise ValueError(
            f"built-in enumeration supports order 1..ENUM_MAX = {ENUM_MAX}, got {lo}..{hi}; "
            "larger orders must arrive via graph6 files"
        )
    if max_delta is None:
        # no class of order at most hi has minimum degree hi
        orders, cap = tuple(_classes(n) for n in range(lo, hi + 1)), hi
    else:
        orders = tuple(
            _classes(n, max_delta) if n == hi else _classes(n) for n in range(lo, hi + 1)
        )
        cap = max_delta
    return CodePool(orders, cap, 0, sum(len(deltas) for _, deltas in orders))


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of order n (n <= ENUM_MAX),
    in canonical-code order."""
    for code in class_pool(n, n).codes():
        yield graph_from_code(code)


def class_count(n: int) -> int:
    """Number of isomorphism classes of order n (n <= ENUM_MAX)."""
    return class_pool(n, n).stop
