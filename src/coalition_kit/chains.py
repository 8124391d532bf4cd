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
catalog. No match raises ``ChainClassificationError``, which sweeps and
``verify`` report as a counterexample record with the start graph's
graph6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class TerminatedNonSp:
    last_index: int


@dataclass(frozen=True)
class CycleOutcome:
    entry_index: int
    period: int


@dataclass(frozen=True)
class StepCap:
    cap: int


ChainOutcome = TerminatedNonSp | CycleOutcome | StepCap


@dataclass(frozen=True)
class ChainResult:
    """The members of a chain and how it ended.

    Canonical codes are computed on first read and cached: ``code(i)`` for
    one member, ``codes`` for all of them. A chain that ends at a non-SP
    member carries that member's blocking vertex, as ``sp_check`` reports it.
    """

    sequence: tuple[Graph, ...]
    outcome: ChainOutcome
    _code_cache: dict[int, bytes] = field(default_factory=dict, compare=False, repr=False)
    blocking_vertex: int | None = field(default=None, compare=False, repr=False)

    def code(self, i: int) -> bytes:
        """Canonical code of member ``i``."""
        cache = self._code_cache
        if i not in cache:
            cache[i] = canonical_form(self.sequence[i])
        return cache[i]

    @property
    def codes(self) -> tuple[bytes, ...]:
        return tuple(self.code(i) for i in range(len(self.sequence)))


def sc_chain(g: Graph, max_steps: int = CHAIN_STEPS_DEFAULT) -> ChainResult:
    """Iterate the singleton-coalition construction from ``g``. Stops at the
    first non-SP graph (included in the sequence), at the first repeated
    isomorphism class, or after ``max_steps`` arrows."""
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    return _chain_from(g, singleton_partners(g), max_steps)


def _chain_from(g: Graph, scan: tuple, max_steps: int) -> ChainResult:
    """The chain of ``g`` from ``scan``, its ``singleton_partners``: each
    member's scan tests it and gives the next member's rows. Only an SP member
    can repeat an earlier one, so a member (and the start with the first one)
    is canonicalized only after its scan passes; other codes are lazy."""
    seq = [g]
    codes: dict[int, bytes] = {}
    while True:
        last = len(seq) - 1
        _, partners, blocking = scan
        if blocking is not None:
            return ChainResult(tuple(seq), TerminatedNonSp(last), codes, blocking)
        if last:
            if not codes:
                codes[0] = canonical_form(g)
            code = canonical_form(seq[last])
            entry = next((i for i, c in codes.items() if c == code), None)
            codes[last] = code
            if entry is not None:
                return ChainResult(tuple(seq), CycleOutcome(entry, last - entry), codes)
        if last == max_steps:
            return ChainResult(tuple(seq), StepCap(max_steps), codes)
        # partner masks are symmetric and loop-free, so the image is trusted
        seq.append(Graph._trusted(g.n, tuple(partners)))
        scan = singleton_partners(seq[-1])


@dataclass(frozen=True)
class LsccValue:
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

    @staticmethod
    def finite(k: int, start_not_sp: bool = False) -> "LsccValue":
        return LsccValue("finite", value=k, start_not_sp=start_not_sp)

    @staticmethod
    def infinite(late_entry_cycle: bool = False) -> "LsccValue":
        return LsccValue("infinite", late_entry_cycle=late_entry_cycle)

    @staticmethod
    def unknown(cap: int) -> "LsccValue":
        return LsccValue("unknown", cap=cap)


def l_scc_of(chain: ChainResult) -> LsccValue:
    out = chain.outcome
    if isinstance(out, TerminatedNonSp):
        if out.last_index == 0:
            return LsccValue.finite(0, start_not_sp=True)
        return LsccValue.finite(out.last_index)
    if isinstance(out, CycleOutcome):
        if out.entry_index == 0 and out.period == 1:
            return LsccValue.finite(0)
        return LsccValue.infinite(late_entry_cycle=out.entry_index > 0)
    return LsccValue.unknown(out.cap)


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


@dataclass(frozen=True)
class ChainTemplate:
    label: str
    order: int
    notes: tuple[str, ...] = ()


class ChainClassificationError(ValueError):
    """The computed chain matches no cataloged template (a counterexample)."""


class OutOfCharacterizedRange(ValueError):
    """Starting graphs of minimum degree three or more are not cataloged."""


def _fin(chain: ChainResult, k: int) -> bool:
    return isinstance(chain.outcome, TerminatedNonSp) and chain.outcome.last_index == k


def _cyc(chain: ChainResult, entry: int, period: int) -> bool:
    return (
        isinstance(chain.outcome, CycleOutcome)
        and chain.outcome.entry_index == entry
        and chain.outcome.period == period
    )


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
    n = g.n
    seq = chain.sequence

    def iso(i: int, h: Graph) -> bool:
        # member codes are cached on the chain; the guards spare most of them
        return (
            i < len(seq)
            and seq[i].n == h.n
            and sorted(seq[i].degrees()) == sorted(h.degrees())
            and chain.code(i) == canonical_form(h)
        )

    label = _classify(g, chain, stats, n, seq, iso)
    if label is None:
        raise ChainClassificationError("chain matches no template in the catalog")
    name, notes = label
    return ChainTemplate(name, n, tuple(notes))


def _classify(g, chain, stats, n, seq, iso):
    has_full = stats.full_count > 0
    d = stats.min_degree

    if d == 0:
        if n == 1 and _cyc(chain, 0, 1):
            return "Thm14(a)", []
        if n == 2 and _cyc(chain, 0, 2) and iso(1, complete(2)):
            return "Thm14(b)", []
        if n == 3 and _cyc(chain, 0, 2) and iso(1, path(3)):
            return "Thm14(d)", []
        if n > 3 and _fin(chain, 1) and iso(1, complete_bipartite(1, n - 1)):
            return "Thm14(c)", []
        return None

    if d == 1 and has_full:
        if n == 2 and _cyc(chain, 0, 2) and iso(1, empty_graph(2)):
            return "Thm15(a)", []
        if n == 3 and _cyc(chain, 0, 2) and iso(1, union(complete(1), complete(2))):
            return "Thm15(c)", []
        if n > 3 and _fin(chain, 1) and iso(1, union(complete(1), complete_bipartite(1, n - 2))):
            return "Thm15(b)", []
        return None

    if d == 1:
        if n == 4 and _fin(chain, 3) and iso(1, cycle(4)) and iso(2, complete(4)) and iso(3, empty_graph(4)):
            return "Thm16(b)", ["intermediate image is the 4-cycle; order-4 boundary case"]
        if (
            n >= 5
            and _fin(chain, 2)
            and iso(1, complete_bipartite(2, n - 2))
            and iso(2, _pair_join_independents(n - 2))
        ):
            return "Thm16(c)", []
        if _fin(chain, 1) and recognize_h1(seq[1]) is not None:
            return "Thm16(a)", []
        return None

    if d == 2 and has_full:
        if _fin(chain, 1):
            return "Thm17", []
        return None

    # minimum degree 2, no full vertex
    b = seq[1] if len(seq) > 1 else None
    if b is None:
        return None

    def h2_role(sub):
        return recognize_h2(b, sub) is not None

    if _fin(chain, 1):
        if recognize_h2(b) is not None:
            return "H2-nonSP", []
        return None

    if isinstance(chain.outcome, CycleOutcome):
        if _cyc(chain, 0, 1) and iso(0, cycle(5)):
            return "LemH23(d)", ["constant chain; length zero by convention"]
        if _cyc(chain, 1, 1) and iso(1, cycle(5)):
            return "LemH23(d)", []
        if _cyc(chain, 1, 1) and n >= 6 and iso(1, complete_bipartite(3, n - 3)):
            return "LemH23(v)", []
        return None

    if _fin(chain, 2):
        if iso(1, complete(4)) and iso(2, empty_graph(4)):
            return "Lem18(a)", []
        if iso(1, join(empty_graph(2), complete(3))) and iso(2, union(empty_graph(3), complete(2))):
            return "Lem18(b)", []
        if iso(1, _k4_minus_e()) and iso(2, union(empty_graph(2), complete(2))):
            return "Lem18(c)", []
        if iso(1, _k4_plus_tail_pair()) and iso(2, union(empty_graph(2), path(3))):
            return "Lem18(d)", []
        if iso(2, corona_k3_k1()):
            return "Lem19(f)", []
        if n >= 6 and iso(2, _triangle_with_pendants(n)):
            return "Lem19(g)", []
        if n >= 6 and iso(2, _triangle_with_pendants_plus_edge(n)):
            return "Lem19(h)", []
        if n == 5 and iso(1, complete_bipartite(2, 3)) and iso(2, _pair_join_independents(3)) and h2_role(3):
            return "LemH23(f*)", ["catalog entry corrected to the computed image"]
        if iso(2, _pair_join_independents(n - 2)):
            return "Lem19(i)", []
        if iso(2, _pair_join_independents_plus_edge(n - 2)):
            return "Lem19(j)", []
        if recognize_h1(seq[2]) is not None:
            return ("Lem19(a)", []) if h2_role(2) else ("LemH23(a)", [])
        if h2_role(3) and recognize_h2(seq[2]) is not None:
            # catalog gap found by the exhaustive sweep: the image of the
            # first image lands back in the independent-hub family without a
            # singleton partition, stopping the chain after two arrows
            return "LemH23(x*)", ["catalog entry added from the exhaustive sweep"]
        return None

    if _fin(chain, 3):
        if (
            iso(1, _bridged_pair())
            and iso(2, join(empty_graph(2), complete(3)))
            and iso(3, union(empty_graph(3), complete(2)))
        ):
            return "Lem19(e)", []
        if iso(2, complete_bipartite(2, n - 2)) and iso(3, _pair_join_independents(n - 2)):
            return ("Lem19(c)", []) if h2_role(2) else ("LemH23(c)", [])
        if iso(2, complete(4)) and iso(3, empty_graph(4)):
            return "LemH23(h)", []
        if iso(2, join(empty_graph(2), complete(3))) and iso(3, union(empty_graph(3), complete(2))):
            return "LemH23(i)", []
        if iso(2, _k4_minus_e()) and iso(3, union(empty_graph(2), complete(2))):
            return "LemH23(j)", []
        if iso(2, _k4_plus_tail_pair()) and iso(3, union(empty_graph(2), path(3))):
            return "LemH23(k)", []
        if iso(3, corona_k3_k1()):
            return "LemH23(q)", []
        if n >= 6 and iso(3, _triangle_with_pendants(n)):
            return "LemH23(r)", []
        if n >= 6 and iso(3, _triangle_with_pendants_plus_edge(n)):
            return "LemH23(s)", []
        if iso(3, _pair_join_independents(n - 2)):
            return "LemH23(t)", []
        if iso(3, _pair_join_independents_plus_edge(n - 2)):
            return "LemH23(u)", []
        if (
            n >= 6
            and iso(1, join(union(complete(1), complete(2)), empty_graph(n - 3)))
            and iso(2, join(path(3), empty_graph(n - 3)))
            and iso(3, union(complete(1), _pair_join_independents(n - 3)))
        ):
            return "LemH23(w*)", ["catalog entry corrected to the computed image"]
        if recognize_h1(seq[3]) is not None:
            return "LemH23(l)", []
        return None

    if _fin(chain, 4):
        if (
            iso(1, _house())
            and iso(2, _bridged_pair())
            and iso(3, join(empty_graph(2), complete(3)))
            and iso(4, union(empty_graph(3), complete(2)))
        ):
            return "Lem19(d)", []
        if iso(2, cycle(4)) and iso(3, complete(4)) and iso(4, empty_graph(4)):
            return ("Lem19(b)", []) if h2_role(2) else ("LemH23(b)", [])
        if iso(3, complete_bipartite(2, n - 2)) and iso(4, _pair_join_independents(n - 2)):
            return "LemH23(n)", []
        if (
            iso(2, _bridged_pair())
            and iso(3, join(empty_graph(2), complete(3)))
            and iso(4, union(empty_graph(3), complete(2)))
        ):
            return "LemH23(p)", []
        return None

    if _fin(chain, 5):
        if iso(3, cycle(4)) and iso(4, complete(4)) and iso(5, empty_graph(4)):
            return "LemH23(m)", []
        if (
            iso(2, _house())
            and iso(3, _bridged_pair())
            and iso(4, join(empty_graph(2), complete(3)))
            and iso(5, union(empty_graph(3), complete(2)))
        ):
            return "LemH23(o)", []
        return None

    return None
