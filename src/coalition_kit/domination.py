"""Dominating sets, coalitions, coalition partitions, and the exact
maximum-partition search.

A set D dominates when every vertex is in D or adjacent to it, i.e.
N[D] = V. Two disjoint nonempty sets form a coalition when neither
dominates but their union does. A coalition partition is a vertex
partition whose parts are one-vertex dominating sets or coalition partners
of another part; the coalition number is the largest part count over all
such partitions. The all-singletons partition plays a special role: a
graph admitting it as a coalition partition is a singleton-partition
graph, and that holds exactly when the coalition number equals the order.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import NamedTuple, Sequence

from .graphs import Graph, bits, mask_of
from .limits import CNUM_MAX, ORDER_MAX


def closed_neighborhood(g: Graph, s: int) -> int:
    """N[S]: the set S together with every neighbor of a member."""
    if s & ~g.vertex_mask:
        raise ValueError("vertex set has bits outside the graph")
    out = s
    for v in bits(s):
        out |= g.rows[v]
    return out


def is_dominating(g: Graph, s: int) -> bool:
    return closed_neighborhood(g, s) == g.vertex_mask


def forms_coalition(g: Graph, a: int, b: int) -> bool:
    """Neither side dominates, the union does."""
    if not a or not b:
        raise ValueError("coalition sides must be nonempty")
    if a & b:
        raise ValueError("coalition sides must be disjoint")
    return (
        not is_dominating(g, a)
        and not is_dominating(g, b)
        and is_dominating(g, a | b)
    )


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


class Partition(NamedTuple("_Parts", [("n", int), ("parts", tuple[int, ...])])):
    """Ordered partition of the vertices into nonempty disjoint parts."""

    __slots__ = ()

    def __new__(cls, n: int, parts: tuple[int, ...]) -> "Partition":
        seen = 0
        for part in parts:
            if part == 0:
                raise ValueError("empty part")
            if part & seen:
                raise ValueError("overlapping parts")
            seen |= part
        if seen != (1 << n) - 1:
            raise ValueError("parts do not cover the vertex set")
        return super().__new__(cls, n, parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    @staticmethod
    def from_blocks(n: int, blocks: list[list[int]]) -> "Partition":
        return Partition(n, tuple(mask_of(b) for b in blocks))


def singleton_partition(g: Graph) -> Partition:
    """The all-singletons partition of V."""
    return Partition(g.n, tuple(1 << v for v in range(g.n)))


class PartVerdict(NamedTuple):
    index: int
    status: str  # "singleton-dominating" | "coalition" | "invalid"
    partner: int | None = None  # least valid partner part index
    reason: str | None = None


class PartitionVerdict(NamedTuple):
    valid: bool
    per_part: tuple[PartVerdict, ...]


def is_coalition_partition(g: Graph, p: Partition) -> PartitionVerdict:
    """Judge every part: one-vertex dominating set, coalition partner, or invalid."""
    if p.n != g.n:
        raise ValueError("partition order does not match the graph")
    dominating = [is_dominating(g, part) for part in p.parts]
    verdicts: list[PartVerdict] = []
    for i, part in enumerate(p.parts):
        if dominating[i]:
            if part.bit_count() == 1:
                verdicts.append(PartVerdict(i, "singleton-dominating"))
            else:
                verdicts.append(
                    PartVerdict(i, "invalid", reason="dominating part with more than one vertex")
                )
            continue
        partner = None
        for j, other in enumerate(p.parts):
            if j != i and not dominating[j] and is_dominating(g, part | other):
                partner = j
                break
        if partner is None:
            verdicts.append(PartVerdict(i, "invalid", reason="no coalition partner"))
        else:
            verdicts.append(PartVerdict(i, "coalition", partner=partner))
    return PartitionVerdict(all(v.status != "invalid" for v in verdicts), tuple(verdicts))


# ---------------------------------------------------------------------------
# Singleton-partition check
# ---------------------------------------------------------------------------


class SpVerdict(NamedTuple):
    """Whether the all-singletons partition is a coalition partition.

    For a non-full vertex v, a partner is a non-full u with N[u] and N[v]
    covering V; full vertices stand alone as one-vertex dominating sets.
    """

    is_sp: bool
    full_vertices: int
    partner: dict[int, int]
    blocking_vertex: int | None


def singleton_partners(g: Graph) -> tuple[int, list[int], int | None]:
    """``(full, partners, blocking)`` for the singletons of ``g``: the mask of
    full vertices, each vertex's mask of coalition partners, and the first
    non-full vertex without one (the scan stops there, leaving the later
    masks 0), or None.

    {u} and {v} form a coalition exactly when neither is full and
    N[u] | N[v] == V, that is when u lies in N[w] for every w outside N[v].
    ``sp_check``, ``sc_graph`` and each ``sc_chain`` step read this scan, and
    ``verify._Facts`` keeps a graph's as its SP verdict, image and first
    arrow. The verify pass and the sweep take it, with the degree stats,
    from ``singleton_scans`` for a whole chunk at once; this per-graph scan
    is that one's reference and, with ``degree_stats``, gives the lane of
    every graph met on its own (``verify._lane``).
    """
    vmask = (1 << g.n) - 1
    closed = []
    full = 0
    bit = 1
    for row in g.rows:
        cv = row | bit
        if cv == vmask:
            full |= bit
        closed.append(cv)
        bit <<= 1
    partners = [0] * g.n
    non_full = vmask ^ full
    for v, cv in enumerate(closed):
        if cv == vmask:
            continue
        found = non_full
        miss = vmask ^ cv
        while miss and found:
            low = miss & -miss
            found &= closed[low.bit_length() - 1]
            miss ^= low
        if not found:
            return full, partners, v
        partners[v] = found
    return full, partners, None


# each byte's set bits, and 0xFF for a nonzero byte
_POPCOUNT = bytes(b.bit_count() for b in range(256))
_NONZERO = bytes([0]) + b"\xff" * 255
# the scan's blocking vertex of a lane's blocking byte: v + 1 for vertex v, 0 for none
_BLOCKING = (None, *range(ORDER_MAX))


def _words(data: bytes | bytearray) -> list[int]:
    """The 32-bit little-endian words of ``data``."""
    return list(struct.unpack(f"<{len(data) // 4}I", data))


def singleton_scans(
    n: int, rows_list: Sequence[Sequence[int]]
) -> list[tuple[int, int, list[int], int | None]]:
    """``(min_degree, full, partners, blocking)`` for each order-``n`` graph g
    of ``rows_list``, given by its rows, computed for all of them at once:
    the fields of ``degree_stats(g)`` and of ``singleton_partners(g)``, the
    full mask being the same in both.

    The graphs are byte lanes. The rows go into one buffer of 32-bit
    little-endian words, graph by graph, so byte p of row v of every graph
    is the strided slice ``[4v+p :: 4n]``: a plane of one byte per graph.
    A plane read as one int is a word of G bytes, and each step below is
    one int operation over all G lanes, or one ``bytes.translate``, in C.
    Degrees are popcounts summed over the planes; the minimum and the full
    test are byte compares (with every lane below 0x80, ``(a | 0x80) - b``
    keeps a lane's high bit exactly when a >= b). Vertex v's partners are
    the non-full vertices in N[w] for every w outside N[v], as
    ``singleton_partners`` finds them: the AND over all w of N[w], widened
    to every vertex in the lanes where w is in N[v]. A lane blocked at an
    earlier vertex keeps 0 for every later mask. The work is
    O(n^2 * ceil(n/8)) such operations, whatever the number of graphs.
    """
    count = len(rows_list)
    if not count:
        return []
    data = struct.pack(f"<{count * n}I", *chain.from_iterable(rows_list))
    step = 4 * n
    planes = range((n + 7) // 8)
    ones = int.from_bytes(b"\x01" * count, "little")
    every = 255 * ones
    high = 128 * ones

    def at_least(a: int, b: int) -> int:
        """0xFF in the lanes where a >= b, 0 elsewhere."""
        return ((((a | high) - b) & high) >> 7) * 255

    popcounts = data.translate(_POPCOUNT)
    degrees = [
        sum(int.from_bytes(popcounts[4 * v + p :: step], "little") for p in planes)
        for v in range(n)
    ]
    low = degrees[0]
    for degree in degrees[1:]:
        low ^= (low ^ degree) & at_least(low, degree)
    full_lanes = [at_least(degree, (n - 1) * ones) for degree in degrees]  # 0xFF where v is full
    # closed[v][p]: plane p of N[v]
    closed = [[int.from_bytes(data[4 * v + p :: step], "little") for p in planes] for v in range(n)]
    for v in range(n):
        closed[v][v >> 3] |= ones << (v & 7)
    full = [0 for _ in planes]
    for v, lanes in enumerate(full_lanes):
        full[v >> 3] |= lanes & ones << (v & 7)
    vertex_mask = ((1 << n) - 1).to_bytes(4, "little")
    non_full = [vertex_mask[p] * ones ^ full[p] for p in planes]
    # adjacent[v][w]: 0xFF where w is in N(v), so that N[w] does not bind v
    adjacent = [[0] * n for _ in range(n)]
    for v in range(n):
        for w in range(v):
            adjacent[v][w] = adjacent[w][v] = (closed[v][w >> 3] >> (w & 7) & ones) * 255
    partner_data = bytearray(len(data))
    blocked = blocking = 0
    for v in range(n):
        live = every ^ (blocked | full_lanes[v])  # v is not full and nothing blocked before it
        if not live:
            continue
        found = list(non_full)
        for w, near in enumerate(adjacent[v]):
            if w != v:
                cover = closed[w]
                for p in planes:
                    found[p] &= cover[p] | near
        some = 0
        for plane in found:
            some |= plane
        some = int.from_bytes(some.to_bytes(count, "little").translate(_NONZERO), "little")
        stuck = live & ~some
        blocking |= stuck & (v + 1) * ones
        blocked |= stuck
        for p in planes:
            partner_data[4 * v + p :: step] = (found[p] & live).to_bytes(count, "little")
    full_data = bytearray(4 * count)
    for p in planes:
        full_data[p::4] = full[p].to_bytes(count, "little")
    partners = _words(partner_data)
    return list(
        zip(
            low.to_bytes(count, "little"),
            _words(full_data),
            [partners[k : k + n] for k in range(0, count * n, n)],
            map(_BLOCKING.__getitem__, blocking.to_bytes(count, "little")),
        )
    )


def sp_check(g: Graph) -> SpVerdict:
    full, partners, blocking = singleton_partners(g)
    if blocking is not None:
        return SpVerdict(False, full, {}, blocking)
    least = {v: (m & -m).bit_length() - 1 for v, m in enumerate(partners) if m}
    return SpVerdict(True, full, least, None)


# ---------------------------------------------------------------------------
# Exact coalition number
# ---------------------------------------------------------------------------


class CoalitionNumberResult(NamedTuple):
    value: int
    witness: Partition | None


def coalition_number_exact(g: Graph) -> CoalitionNumberResult:
    """Maximum part count over all coalition partitions, by exhaustive search.

    The all-singletons fast path answers order-many parts immediately;
    otherwise every set partition is enumerated in restricted-growth order,
    pruning branches that cannot beat the incumbent. Graphs admitting no
    coalition partition at all report value 0 with no witness.
    """
    if g.n > CNUM_MAX:
        raise ValueError(f"exact search supports order 1..CNUM_MAX = {CNUM_MAX}, got {g.n}")
    sp = sp_check(g)
    if sp.is_sp:
        return CoalitionNumberResult(g.n, singleton_partition(g))

    best = 0
    best_blocks: tuple[int, ...] | None = None
    blocks: list[int] = []

    def search(v: int) -> None:
        nonlocal best, best_blocks
        if len(blocks) + (g.n - v) <= best:
            return
        if v == g.n:
            p = Partition(g.n, tuple(blocks))
            if is_coalition_partition(g, p).valid:
                best = len(blocks)
                best_blocks = tuple(blocks)
            return
        blocks.append(1 << v)
        search(v + 1)
        blocks.pop()
        for i in range(len(blocks)):
            blocks[i] |= 1 << v
            search(v + 1)
            blocks[i] &= ~(1 << v)

    search(0)
    if best_blocks is None:
        return CoalitionNumberResult(0, None)
    return CoalitionNumberResult(best, Partition(g.n, best_blocks))
