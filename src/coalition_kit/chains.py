"""Singleton-coalition chains: iteration, length, and template classification.

The chain of a singleton-partition graph repeatedly applies the
singleton-coalition-graph construction. Since the construction preserves
order and is a function of the isomorphism class, every chain either hits a
graph that is not a singleton-partition graph (finite length: the number of
arrows), or repeats a class (infinite length, except that a repeat of the
very first class with period one means the chain is constant and its length
counts as zero by convention).

``classify_chain`` matches the computed chain for starting graphs of
minimum degree at most two against a closed catalog of templates, checking
each named graph in the template by isomorphism rather than trusting the
catalog. For minimum degree two and no full vertex, the finite chains of
Lemmas 18, 19 and H2.3 are one table of tails: the template graphs that end
a chain, or a recognizer of its last member. A chain of k arrows tries the
k-arrow entries in catalog order, then the (k-1)-arrow entries under their
Lemma H2.3 labels one arrow later. Only 10 of that branch's 37 labels occur
at orders up to 9. No match raises ``ChainClassificationError``, which
sweeps and ``verify`` report as a counterexample record with the start
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
    """A finite chain of Lemmas 18, 19 and H2.3. ``in_h23`` asks the first
    image to be in H2.3; ``split`` is the label when it is not in H2.2."""

    arrows: int
    label: str
    later: str | None  # the Lemma H2.3 label of the same tail one arrow later
    tail: tuple[Graph, ...] | Callable[[Graph], object]  # templates, or a recognizer
    note: str | None = None
    in_h23: bool = False
    split: str | None = None


_CORRECTED = "catalog entry corrected to the computed image"
_ADDED = "catalog entry added from the exhaustive sweep"


@lru_cache(maxsize=None)
def _catalog(n: int) -> tuple[_Entry, ...]:
    """The entries for start order ``n``, built once; one with no tail at ``n`` is left out."""
    K, E = complete, empty_graph
    lem18b = (join(E(2), K(3)), union(E(3), K(2)))
    bridge = (_bridged_pair(), *lem18b)
    pairs = _pair_join_independents(n - 2)
    rest = E(n - 3)
    w_star = (join(union(K(1), K(2)), rest), join(path(3), rest), union(K(1), join(K(2), rest)))
    big = n >= 6
    entries = (
        _Entry(2, "Lem18(a)", "LemH23(h)", (K(4), E(4))),
        _Entry(2, "Lem18(b)", "LemH23(i)", lem18b),
        _Entry(2, "Lem18(c)", "LemH23(j)", (_k4_minus_e(), union(E(2), K(2)))),
        _Entry(2, "Lem18(d)", "LemH23(k)", (_k4_plus_tail_pair(), union(E(2), path(3)))),
        _Entry(2, "Lem19(f)", "LemH23(q)", (corona_k3_k1(),)),
        _Entry(2, "Lem19(g)", "LemH23(r)", (_triangle_with_pendants(n),) if big else ()),
        _Entry(2, "Lem19(h)", "LemH23(s)", (_triangle_with_pendants_plus_edge(n),) if big else ()),
        _Entry(2, "LemH23(f*)", None, (complete_bipartite(2, 3), pairs) if n == 5 else (),
               _CORRECTED, True),
        _Entry(2, "Lem19(i)", "LemH23(t)", (pairs,)),
        _Entry(2, "Lem19(j)", "LemH23(u)", (_pair_join_independents_plus_edge(n - 2),)),
        _Entry(2, "Lem19(a)", "LemH23(l)", recognize_h1, split="LemH23(a)"),
        # a gap the sweep found: the second image is in H2 but not SP
        _Entry(2, "LemH23(x*)", None, recognize_h2, _ADDED, True),
        _Entry(3, "Lem19(e)", "LemH23(p)", bridge),
        _Entry(3, "Lem19(c)", "LemH23(n)", (complete_bipartite(2, n - 2), pairs),
               split="LemH23(c)"),
        _Entry(3, "LemH23(w*)", None, w_star if big else (), _CORRECTED),
        _Entry(4, "Lem19(d)", "LemH23(o)", (_house(), *bridge)),
        _Entry(4, "Lem19(b)", "LemH23(m)", (cycle(4), K(4), E(4)), split="LemH23(b)"),
    )
    return tuple(e for e in entries if e.tail)


@lru_cache(maxsize=None)
def _fingerprint(h: Graph) -> tuple[int, list[int], bytes]:
    """Order, sorted degrees and canonical code of a template graph."""
    return h.n, sorted(h.degrees()), canonical_form(h)


def _fin(chain: ChainResult, k: int) -> bool:
    return chain.outcome == TerminatedNonSp(k)


def _cyc(chain: ChainResult, entry: int, period: int) -> bool:
    return chain.outcome == CycleOutcome(entry, period)


def classify_chain(
    g: Graph, chain: ChainResult | None = None, stats: DegreeStats | None = None
) -> ChainTemplate:
    """Match the computed chain of an SP-graph with minimum degree <= 2
    against the template catalog, isomorphism-checking every named graph.

    ``chain`` and ``stats`` are ``sc_chain(g)`` and ``degree_stats(g)``,
    computed here when not passed."""
    if stats is None:
        stats = degree_stats(g)
    if stats.min_degree >= 3:
        raise OutOfCharacterizedRange(
            f"minimum degree {stats.min_degree} is outside the characterized range"
        )
    if chain is None:
        chain = sc_chain(g)
    if chain.outcome == TerminatedNonSp(0):
        raise ValueError("classify_chain needs a singleton-partition graph")
    seq = chain.sequence

    def iso(i: int, h: Graph) -> bool:
        # member codes are cached on the chain; the guards spare most of them
        order, degrees, code = _fingerprint(h)
        return (
            i < len(seq)
            and seq[i].n == order
            and sorted(seq[i].degrees()) == degrees
            and chain.code(i) == code
        )

    label = _classify(chain, stats, g.n, seq, iso)
    if label is None:
        raise ChainClassificationError("chain matches no template in the catalog")
    return ChainTemplate(*label)


def _classify(chain, stats, n, seq, iso):
    has_full = stats.full_count > 0
    d = stats.min_degree

    if d == 0:
        if n == 1 and _cyc(chain, 0, 1):
            return "Thm14(a)", ()
        if n == 2 and _cyc(chain, 0, 2) and iso(1, complete(2)):
            return "Thm14(b)", ()
        if n == 3 and _cyc(chain, 0, 2) and iso(1, path(3)):
            return "Thm14(d)", ()
        if n > 3 and _fin(chain, 1) and iso(1, complete_bipartite(1, n - 1)):
            return "Thm14(c)", ()
        return None

    if d == 1 and has_full:
        if n == 2 and _cyc(chain, 0, 2) and iso(1, empty_graph(2)):
            return "Thm15(a)", ()
        if n == 3 and _cyc(chain, 0, 2) and iso(1, union(complete(1), complete(2))):
            return "Thm15(c)", ()
        if n > 3 and _fin(chain, 1) and iso(1, union(complete(1), complete_bipartite(1, n - 2))):
            return "Thm15(b)", ()
        return None

    if d == 1:
        if n == 4 and _fin(chain, 3) and iso(1, cycle(4)) and iso(2, complete(4)) and iso(3, empty_graph(4)):
            return "Thm16(b)", ("intermediate image is the 4-cycle; order-4 boundary case",)
        if (
            n >= 5
            and _fin(chain, 2)
            and iso(1, complete_bipartite(2, n - 2))
            and iso(2, _pair_join_independents(n - 2))
        ):
            return "Thm16(c)", ()
        if _fin(chain, 1) and recognize_h1(seq[1]) is not None:
            return "Thm16(a)", ()
        return None

    if d == 2 and has_full:
        return ("Thm17", ()) if _fin(chain, 1) else None

    # minimum degree 2, no full vertex
    if len(seq) < 2:
        return None
    if _fin(chain, 1):
        return ("H2-nonSP", ()) if recognize_h2(seq[1]) is not None else None

    if isinstance(chain.outcome, CycleOutcome):
        if _cyc(chain, 0, 1) and iso(0, cycle(5)):
            return "LemH23(d)", ("constant chain; length zero by convention",)
        if _cyc(chain, 1, 1) and iso(1, cycle(5)):
            return "LemH23(d)", ()
        if _cyc(chain, 1, 1) and n >= 6 and iso(1, complete_bipartite(3, n - 3)):
            return "LemH23(v)", ()
        return None

    if isinstance(chain.outcome, TerminatedNonSp):
        return _finite_label(seq, chain.outcome.last_index, _catalog(n), iso)
    return None


def _finite_label(seq, k, catalog, iso):
    """The catalog label of a chain of ``k`` arrows (the tail rule in the module docstring)."""
    def ends_with(tail) -> bool:
        if callable(tail):
            return tail(seq[k]) is not None
        first = k + 1 - len(tail)
        return all(iso(first + j, h) for j, h in enumerate(tail))

    for e in catalog:
        if e.arrows != k or not ends_with(e.tail):
            continue
        if e.in_h23 and recognize_h2(seq[1], 3) is None:
            continue
        if e.split and recognize_h2(seq[1], 2) is None:
            return e.split, ()
        return e.label, (e.note,) if e.note else ()
    for e in catalog:
        if e.arrows == k - 1 and e.later and ends_with(e.tail):
            return e.later, ()
    return None
