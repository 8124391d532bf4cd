"""Singleton-coalition chains: iteration, length, and template classification.

The chain of a singleton-partition graph repeatedly applies the
singleton-coalition-graph construction. Since the construction preserves
order and is a function of the isomorphism class, every chain either hits a
graph that is not a singleton-partition graph (finite length: the number of
arrows), or repeats a class (infinite length, except that a repeat of the
very first class with period one means the chain is constant and its length
counts as zero by convention).

``classify_chain`` matches the computed chain of a starting graph of
minimum degree at most two against one closed catalog, checking each named
graph in a template by isomorphism rather than trusting the catalog. Every
label of Theorems 14-17 and Lemmas 18, 19 and H2.3 is in one table of rows,
grouped by the start's minimum degree and whether it has a full vertex. A
row holds an outcome (an arrow count, or a cycle's entry and period) and a
tail: the template graphs that end at the chain's last new member, or a
recognizer of that member. That member is the last one of a finite chain,
and the one before the repeat of a cycle. A chain takes the first row of
its group with its outcome and tail; a finite chain that matches none then
takes the Lemma H2.3 label of a row one arrow shorter whose tail it ends
with. Only 10 of the 37 labels of the degree-2 group without a full vertex
occur at orders up to 9. No match raises ``ChainClassificationError``,
which sweeps and ``verify`` report as a counterexample record with the start
graph's graph6.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from .canon import canonical_form
from .domination import singleton_partners
from .families import recognize_h1, recognize_h2
from .graphs import (
    DegreeStats,
    Graph,
    complete,
    complete_bipartite,
    cycle,
    corona_k3_k1,
    degree_stats,
    empty_graph,
    join,
    path,
    union,
)
from .limits import CHAIN_STEPS_DEFAULT


# ---------------------------------------------------------------------------
# Chain iteration
# ---------------------------------------------------------------------------


def _same_type_eq(self, other: object) -> bool:
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _same_type_ne(self, other: object) -> bool:
    return not _same_type_eq(self, other)


# Outcomes are tuples that equal only outcomes of their own type, so that
# TerminatedNonSp(k) != StepCap(k).


class TerminatedNonSp(NamedTuple):
    last_index: int
    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__


class CycleOutcome(NamedTuple):
    entry_index: int
    period: int
    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__


class StepCap(NamedTuple):
    cap: int
    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__


ChainOutcome = TerminatedNonSp | CycleOutcome | StepCap


class ChainResult:
    """The members of a chain and how it ended.

    Canonical codes are computed on first read and cached: ``code(i)`` for
    one member, ``codes`` for all of them. A chain that ends at a non-SP
    member carries that member's blocking vertex, as ``sp_check`` reports it.
    Equality and hash read ``(sequence, outcome)`` only.
    """

    __slots__ = ("sequence", "outcome", "_code_cache", "blocking_vertex")

    def __init__(
        self,
        sequence: tuple[Graph, ...],
        outcome: ChainOutcome,
        _code_cache: dict[int, bytes] | None = None,
        blocking_vertex: int | None = None,
    ) -> None:
        self.sequence = sequence
        self.outcome = outcome
        self._code_cache = {} if _code_cache is None else _code_cache
        self.blocking_vertex = blocking_vertex

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sequence == other.sequence and self.outcome == other.outcome

    def __hash__(self) -> int:
        return hash((self.sequence, self.outcome))

    def __repr__(self) -> str:
        return f"ChainResult(sequence={self.sequence!r}, outcome={self.outcome!r})"

    def code(self, i: int) -> bytes:
        """Canonical code of member ``i``."""
        cache = self._code_cache
        if i not in cache:
            cache[i] = canonical_form(self.sequence[i])
        return cache[i]

    @property
    def codes(self) -> tuple[bytes, ...]:
        return tuple(self.code(i) for i in range(len(self.sequence)))


def sc_chain(
    g: Graph, max_steps: int = CHAIN_STEPS_DEFAULT, *, scan: tuple | None = None
) -> ChainResult:
    """Iterate the singleton-coalition construction from ``g``. Stops at the
    first non-SP graph (included in the sequence), at the first repeated
    isomorphism class, or after ``max_steps`` arrows.

    ``scan`` is ``singleton_partners(g)`` when the caller holds it. Each
    member's scan tests it and gives the next member's rows. Only an SP
    member can repeat an earlier one, and only one with the same sorted
    degree sequence, so a member and such an earlier one are canonicalized
    only then, and a member with the rows of such an earlier one takes its
    code. Every other code is computed on first read."""
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if scan is None:
        scan = singleton_partners(g)
    seq = [g]
    degrees: list[list[int]] = []  # sorted, of the SP members, once there are two
    codes: dict[int, bytes] = {}
    while True:
        last = len(seq) - 1
        _, partners, blocking = scan
        if blocking is not None:
            return ChainResult(tuple(seq), TerminatedNonSp(last), codes, blocking)
        if last:
            if not degrees:
                degrees.append(sorted(g.degrees()))
            member = sorted(seq[last].degrees())
            ties = [i for i, d in enumerate(degrees) if d == member]
            degrees.append(member)
            if ties:
                # a member with the exact rows of an earlier tie shares its code
                twin = next((i for i in ties if seq[i].rows == seq[last].rows), last)
                if twin not in codes:
                    codes[twin] = canonical_form(seq[twin])
                code = codes[last] = codes[twin]
                for i in ties:
                    if i not in codes:
                        codes[i] = canonical_form(seq[i])
                    if codes[i] == code:
                        return ChainResult(tuple(seq), CycleOutcome(i, last - i), codes)
        if last == max_steps:
            return ChainResult(tuple(seq), StepCap(max_steps), codes)
        # partner masks are symmetric and loop-free, so the image is trusted
        seq.append(Graph._trusted(g.n, tuple(partners)))
        scan = singleton_partners(seq[-1])


class LsccValue(NamedTuple):
    """Chain length: finite arrow count, infinite, or unknown at the cap.

    ``start_not_sp`` marks starting graphs outside the construction's
    domain (reported as length zero so batch sweeps proceed);
    ``late_entry_cycle`` marks repeats that skip the starting class.
    """

    kind: str  # "finite" | "infinite" | "unknown"
    value: int | None = None
    cap: int | None = None
    start_not_sp: bool = False
    late_entry_cycle: bool = False


def l_scc_of(chain: ChainResult) -> LsccValue:
    out = chain.outcome
    if isinstance(out, TerminatedNonSp):
        return LsccValue("finite", value=out.last_index, start_not_sp=out.last_index == 0)
    if isinstance(out, CycleOutcome):
        if out.entry_index == 0 and out.period == 1:
            return LsccValue("finite", value=0)
        return LsccValue("infinite", late_entry_cycle=out.entry_index > 0)
    return LsccValue("unknown", cap=out.cap)


def l_scc(g: Graph, max_steps: int = CHAIN_STEPS_DEFAULT) -> LsccValue:
    return l_scc_of(sc_chain(g, max_steps))


# ---------------------------------------------------------------------------
# Template graphs
# ---------------------------------------------------------------------------


def _k4_minus_e() -> Graph:
    return complete(4).without_edge(0, 1)


def _k4_plus_tail_pair() -> Graph:
    # complete graph on four vertices plus a new vertex joined to two of them
    return union(complete(4), complete(1)).with_edge(4, 0).with_edge(4, 1)


def _house() -> Graph:
    # five-cycle plus one chord
    return cycle(5).with_edge(0, 2)


def _pair_join_independents(m: int) -> Graph:
    # two mutually adjacent vertices joined to m independent ones
    return join(complete(2), empty_graph(m))


def _pair_join_independents_plus_edge(m: int) -> Graph:
    return _pair_join_independents(m).with_edge(2, 3)


def _bridged_pair() -> Graph:
    # two nonadjacent vertices joined to one lone and one adjacent pair
    return join(empty_graph(2), union(complete(1), complete(2)))


def _triangle_with_pendants(n: int) -> Graph:
    """Triangle a,b,c with one pendant on a and n-4 pendants on c."""
    if n < 6:
        raise ValueError("this template needs order >= 6")
    a, b, c = 0, 1, 2
    edges = [(a, b), (b, c), (a, c), (a, 3)]
    edges += [(c, v) for v in range(4, n)]
    return Graph.from_edges(n, edges)


def _triangle_with_pendants_plus_edge(n: int) -> Graph:
    """Same, with one c-pendant also joined to the degree-2 triangle vertex."""
    return _triangle_with_pendants(n).with_edge(1, 4)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class ChainTemplate(NamedTuple):
    label: str
    notes: tuple[str, ...] = ()

    @property
    def lemma(self) -> str:
        """The theorem or lemma the label cites, such as ``Lem19``."""
        return self.label.partition("(")[0]


class ChainClassificationError(ValueError):
    """The computed chain matches no cataloged template (a counterexample)."""


class OutOfCharacterizedRange(ValueError):
    """Starting graphs of minimum degree three or more are not cataloged."""


class _Entry(NamedTuple):
    """A catalog row: the chain's outcome, its label and the tail that ends
    it. ``tail`` is the template graphs that end at the chain's last new
    member (none to check when empty), or a recognizer of that member, or
    None when the row has no template at this order. ``later`` is the
    Lemma H2.3 label of the same tail one arrow later; ``in_h23`` asks the
    first image to be in H2.3; ``split`` is the label when it is not in H2.2."""

    outcome: TerminatedNonSp | CycleOutcome
    label: str
    tail: tuple[Graph, ...] | Callable[[Graph], object] | None
    later: str | None = None
    note: str | None = None
    in_h23: bool = False
    split: str | None = None


_CORRECTED = "catalog entry corrected to the computed image"
_ADDED = "catalog entry added from the exhaustive sweep"


@lru_cache(maxsize=None)
def _catalog(n: int) -> dict[tuple[int, bool], tuple[_Entry, ...]]:
    """Every row for start order ``n``, built once and grouped by the
    start's (minimum degree, full vertex present), degree 0 being one group.
    A row with no tail at ``n`` is left out, and so is the degree-2 group
    without a full vertex below order 4, where no graph has that key."""
    K, E, T, C = complete, empty_graph, TerminatedNonSp, CycleOutcome
    groups = {
        (0, False): (
            _Entry(C(0, 1), "Thm14(a)", () if n == 1 else None),
            _Entry(C(0, 2), "Thm14(b)", (K(2),) if n == 2 else None),
            _Entry(C(0, 2), "Thm14(d)", (path(3),) if n == 3 else None),
            _Entry(T(1), "Thm14(c)", (complete_bipartite(1, n - 1),) if n > 3 else None),
        ),
        (1, True): (
            _Entry(C(0, 2), "Thm15(a)", (E(2),) if n == 2 else None),
            _Entry(C(0, 2), "Thm15(c)", (union(K(1), K(2)),) if n == 3 else None),
            _Entry(T(1), "Thm15(b)",
                   (union(K(1), complete_bipartite(1, n - 2)),) if n > 3 else None),
        ),
        (1, False): (
            _Entry(T(3), "Thm16(b)", (cycle(4), K(4), E(4)) if n == 4 else None,
                   note="intermediate image is the 4-cycle; order-4 boundary case"),
            _Entry(T(2), "Thm16(c)",
                   (complete_bipartite(2, n - 2), _pair_join_independents(n - 2))
                   if n >= 5 else None),
            _Entry(T(1), "Thm16(a)", recognize_h1),
        ),
        (2, True): (_Entry(T(1), "Thm17", ()),),
    }
    if n >= 4:
        lem18b = (join(E(2), K(3)), union(E(3), K(2)))
        bridge = (_bridged_pair(), *lem18b)
        pairs = _pair_join_independents(n - 2)
        rest = E(n - 3)
        big = n >= 6
        w_star = (join(union(K(1), K(2)), rest), join(path(3), rest), union(K(1), join(K(2), rest)))
        groups[2, False] = (
            _Entry(T(1), "H2-nonSP", recognize_h2),
            _Entry(C(0, 1), "LemH23(d)", (cycle(5),) if n == 5 else None,
                   note="constant chain; length zero by convention"),
            _Entry(C(1, 1), "LemH23(d)", (cycle(5),) if n == 5 else None),
            _Entry(C(1, 1), "LemH23(v)", (complete_bipartite(3, n - 3),) if big else None),
            _Entry(T(2), "Lem18(a)", (K(4), E(4)), "LemH23(h)"),
            _Entry(T(2), "Lem18(b)", lem18b, "LemH23(i)"),
            _Entry(T(2), "Lem18(c)", (_k4_minus_e(), union(E(2), K(2))), "LemH23(j)"),
            _Entry(T(2), "Lem18(d)", (_k4_plus_tail_pair(), union(E(2), path(3))), "LemH23(k)"),
            _Entry(T(2), "Lem19(f)", (corona_k3_k1(),), "LemH23(q)"),
            _Entry(T(2), "Lem19(g)", (_triangle_with_pendants(n),) if big else None, "LemH23(r)"),
            _Entry(T(2), "Lem19(h)", (_triangle_with_pendants_plus_edge(n),) if big else None,
                   "LemH23(s)"),
            _Entry(T(2), "LemH23(f*)", (complete_bipartite(2, 3), pairs) if n == 5 else None,
                   note=_CORRECTED, in_h23=True),
            _Entry(T(2), "Lem19(i)", (pairs,), "LemH23(t)"),
            _Entry(T(2), "Lem19(j)", (_pair_join_independents_plus_edge(n - 2),), "LemH23(u)"),
            _Entry(T(2), "Lem19(a)", recognize_h1, "LemH23(l)", split="LemH23(a)"),
            # a gap the sweep found: the second image is in H2 but not SP
            _Entry(T(2), "LemH23(x*)", recognize_h2, note=_ADDED, in_h23=True),
            _Entry(T(3), "Lem19(e)", bridge, "LemH23(p)"),
            _Entry(T(3), "Lem19(c)", (complete_bipartite(2, n - 2), pairs), "LemH23(n)",
                   split="LemH23(c)"),
            _Entry(T(3), "LemH23(w*)", w_star if big else None, note=_CORRECTED),
            _Entry(T(4), "Lem19(d)", (_house(), *bridge), "LemH23(o)"),
            _Entry(T(4), "Lem19(b)", (cycle(4), K(4), E(4)), "LemH23(m)", split="LemH23(b)"),
        )
    return {key: tuple(e for e in rows if e.tail is not None) for key, rows in groups.items()}


@lru_cache(maxsize=None)
def _fingerprint(h: Graph) -> tuple[int, list[int], bytes]:
    """Order, sorted degrees and canonical code of a template graph."""
    return h.n, sorted(h.degrees()), canonical_form(h)


def classify_chain(
    g: Graph, chain: ChainResult | None = None, stats: DegreeStats | None = None
) -> ChainTemplate:
    """Match the computed chain of an SP-graph with minimum degree <= 2
    against the template catalog, isomorphism-checking every named graph.

    ``chain`` and ``stats`` are ``sc_chain(g)`` and ``degree_stats(g)``,
    computed here when not passed."""
    if stats is None:
        stats = degree_stats(g)
    d = stats.min_degree
    if d >= 3:
        raise OutOfCharacterizedRange(f"minimum degree {d} is outside the characterized range")
    if chain is None:
        chain = sc_chain(g)
    if chain.outcome == TerminatedNonSp(0):
        raise ValueError("classify_chain needs a singleton-partition graph")
    label = _match(_catalog(g.n)[d, d > 0 and stats.full_count > 0], chain)
    if label is None:
        raise ChainClassificationError("chain matches no template in the catalog")
    return ChainTemplate(*label)


def _match(rows: tuple[_Entry, ...], chain: ChainResult) -> tuple[str, tuple[str, ...]] | None:
    """The label and notes of the chain's row (the rule in the module docstring)."""
    out, seq = chain.outcome, chain.sequence
    if isinstance(out, CycleOutcome):
        last, shorter = out.entry_index + out.period - 1, None
    elif isinstance(out, TerminatedNonSp):
        last, shorter = out.last_index, TerminatedNonSp(out.last_index - 1)
    else:
        return None  # a step cap matches no row

    def iso(i: int, h: Graph) -> bool:
        # member codes are cached on the chain; the guards spare most of them
        order, degrees, code = _fingerprint(h)
        return seq[i].n == order and sorted(seq[i].degrees()) == degrees and chain.code(i) == code

    def ends_with(tail) -> bool:
        if callable(tail):
            return tail(seq[last]) is not None
        first = last + 1 - len(tail)
        return all(iso(first + j, h) for j, h in enumerate(tail))

    for e in rows:
        if e.outcome != out or not ends_with(e.tail):
            continue
        if e.in_h23 and recognize_h2(seq[1], 3) is None:
            continue
        if e.split and recognize_h2(seq[1], 2) is None:
            return e.split, ()
        return e.label, (e.note,) if e.note else ()
    for e in rows:
        if e.later and e.outcome == shorter and ends_with(e.tail):
            return e.later, ()
    return None
