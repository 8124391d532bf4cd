"""Exhaustive desk-scale verification of the claim catalog.

Every claim in the catalog is checked over all isomorphism classes of its
hypothesis class up to a requested order (or over graphs supplied from a
graph6 file), using operations that do not assume the claim itself: family
recognizers are compared against the singleton-partition check, and chain
claims against chains computed step by step with every named graph
isomorphism-verified. Biconditionals are checked in both directions.

Reports are machine readable (JSON-friendly dicts, one per claim or per
swept graph), and every counterexample embeds the graph6 string that
reproduces it.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .canon import CodePool, are_isomorphic, class_pool, graph_from_code
from .chains import (
    ChainClassificationError,
    ChainResult,
    ChainTemplate,
    CycleOutcome,
    LsccValue,
    StepCap,
    TerminatedNonSp,
    classify_chain,
    l_scc_of,
    sc_chain,
)
from .domination import singleton_partners, singleton_scans
from .families import (
    F1Witness,
    FamilySpec,
    f1_violations,
    f2_violations,
    generate_family,
    h1_violations,
    h2_violations,
    recognize_f1,
    recognize_f2,
    recognize_h1,
    recognize_h2,
)
from .graphs import (
    DegreeStats,
    Graph,
    Graph6Lines,
    complete,
    cycle,
    degree_stats,
    emit_graph6,
    join,
    union,
)
from .limits import CANON_MAX

SCHEMA_VERSION = 1


class TheoremReport(NamedTuple):
    """One claim's result, built once from its tally."""

    theorem_id: str
    order_range: tuple[int, int]
    graphs_checked: int
    passed: bool
    counterexamples: list[dict]
    elapsed: float
    notes: tuple[str, ...]
    extras: dict

    def to_json(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "theorem_id": self.theorem_id,
            "order_range": list(self.order_range),
            "graphs_checked": self.graphs_checked,
            "passed": self.passed,
            "counterexamples": self.counterexamples,
            "elapsed": self.elapsed,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        if self.extras:
            out["extras"] = self.extras
        return out


# Chunks per worker process: few enough that a chunk's frame costs little
# next to its work, enough that the last ones finish close together.
_CHUNKS_PER_WORKER = 8
# Most records per chunk: a chunk holds all its graphs and their facts at
# once, so this bounds a worker's memory whatever the order.
_CHUNK_MAX = 512


def _pmap(
    chunk_fn: Callable[[object], list], pool: CodePool | Graph6Lines, jobs: int
) -> Iterator:
    """The results of ``chunk_fn`` over the chunks of ``pool``, yielded in
    pool order.

    The packed pool (``canon.CodePool``, ``graphs.Graph6Lines``) is cut by
    its ``cut`` into _CHUNKS_PER_WORKER contiguous ranges per worker, or
    into more when that leaves a range above _CHUNK_MAX records (classes,
    or lines of a file, by the pool's ``len``). A file's ranges are shares
    of its bytes, so where its lines differ in length a range may still
    hold more; ``Graph6Lines.split`` cuts any such range into ranges of
    _CHUNK_MAX lines (a ``CodePool``'s ranges are cut by count and never
    do). Every range thus holds at most _CHUNK_MAX records. The ranges
    hold no item: each chunk reads its own. ``chunk_fn`` maps one chunk to
    a list of results. When ``jobs`` <= 1 the chunks run in-process, chunk
    by chunk. Otherwise chunk i runs in forked worker i % ``jobs``: workers
    inherit the pool and ``chunk_fn``, so nothing is sent to them, and
    each writes every chunk's pickled results, or the exception of its
    first failing chunk, as one length-prefixed frame to its own pipe. The
    parent reads the frames in chunk order and raises that exception
    where its chunk's results would have been. A worker that ends
    without sending its frames fails the run. Every worker is reaped when
    the generator ends, fails or is closed; one still running then is killed
    first. The caller must run no other thread, which a forked child would
    not have.
    """
    workers = max(jobs, 1)
    chunks = [
        part
        for chunk in pool.cut(max(_CHUNKS_PER_WORKER * workers, -(-len(pool) // _CHUNK_MAX)))
        for part in (chunk.split(_CHUNK_MAX) if len(chunk) > _CHUNK_MAX else (chunk,))
    ]
    if workers == 1 or len(chunks) <= 1:
        for chunk in chunks:
            yield from chunk_fn(chunk)
        return
    # imported here, so that a serial run does not pay for them
    import pickle
    import signal

    workers = min(workers, len(chunks))
    pids: list[int] = []
    readers = []
    finished = False
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as out:  # the parent's copy closes after the fork
                pid = os.fork()
                if pid == 0:
                    # the worker leaves through os._exit, so it never flushes
                    # the parent's stdio or runs its exit hooks
                    try:
                        for reader in readers:
                            reader.close()
                        for chunk in chunks[w::workers]:
                            try:
                                frame = True, chunk_fn(chunk)
                            except BaseException as exc:
                                frame = False, exc
                            data = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
                            out.write(len(data).to_bytes(8, "little"))
                            out.write(data)
                            out.flush()
                            if not frame[0]:
                                break
                        os._exit(0)
                    finally:
                        os._exit(1)
            pids.append(pid)
        for i in range(len(chunks)):
            head = readers[i % workers].read(8)
            length = int.from_bytes(head, "little")
            data = readers[i % workers].read(length) if len(head) == 8 else b""
            if len(head) < 8 or len(data) < length:
                pid = pids.pop(i % workers)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(
                    f"worker process {pid} ended before sending its results (exit status {status})"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            # with the last frame in, the workers are exiting: a consumer
            # that stops here has them reaped, not killed
            finished = i == len(chunks) - 1
            yield from value
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _itself(x):
    return x


def _pool(items: Iterable) -> CodePool | Graph6Lines:
    """A packed pool as it is; any other items, graphs or canonical codes,
    packed once as the lines of an in-memory graph6 file. A malformed code
    raises ``graph_from_code``'s ValueError here, before any chunk runs."""
    if isinstance(items, (CodePool, Graph6Lines)):
        return items
    data = "".join(
        emit_graph6(item if isinstance(item, Graph) else graph_from_code(item)) + "\n"
        for item in items
    ).encode()
    return Graph6Lines("<graphs>", data, 0, len(data))


def _chunk_scans(graphs: list[tuple[Graph, object]]) -> list:
    """``singleton_scans`` of a chunk's graphs, in chunk order: one call per
    order present, since a range of a pool or a file may span several."""
    rows = [g.rows for g, _ in graphs]
    orders = set(map(len, rows))
    if len(orders) <= 1:
        return singleton_scans(len(rows[0]), rows) if rows else []
    out: list = [None] * len(rows)
    for n in orders:
        where = [i for i, r in enumerate(rows) if len(r) == n]
        for i, facts in zip(where, singleton_scans(n, [rows[i] for i in where])):
            out[i] = facts
    return out


# ---------------------------------------------------------------------------
# Facts, computed once per graph
# ---------------------------------------------------------------------------


class _Facts:
    """One graph's facts, as the claim table, the checks and sweep records
    read them.

    For minimum degree <= 2, the range every claim covers, one partner
    scan is the singleton-partition verdict, the image (its partner masks)
    and the chain's first arrow; above it the verdict is False. A chunk
    hands in the degree stats and scan of its graph's lane of
    ``domination.singleton_scans``, which computed them for all its graphs
    at once; a graph on its own gets them from ``degree_stats`` and
    ``singleton_partners``, the scan above minimum degree 2 only when its
    chain is read. The rest is computed on first read. A ``_Facts`` lives
    while its chunk is checked, so nothing outlives a run.
    """

    __slots__ = ("g", "stats", "is_sp", "_scan", "_f1", "_chain")

    def __init__(
        self,
        g: Graph,
        stats: DegreeStats | None = None,
        scan: tuple[int, list[int], int | None] | None = None,
    ):
        """The facts of ``g``, from its ``degree_stats`` and its
        ``singleton_partners`` scan when the caller holds them."""
        if stats is None:
            stats = degree_stats(g)
        if scan is None and stats.min_degree <= 2:
            scan = singleton_partners(g)
        self.g = g
        self.stats = stats
        self._scan = scan
        self.is_sp = stats.min_degree <= 2 and scan[2] is None
        self._f1: F1Witness | None | bool = False  # False until first read
        self._chain: ChainResult | None = None

    def f1(self) -> F1Witness | None:
        """The degree-1 family witness, or None for a non-member."""
        if self._f1 is False:
            self._f1 = recognize_f1(self.g)
        return self._f1

    def image(self) -> Graph:
        """The singleton-coalition image of an SP graph, trusted like sc_graph's."""
        return Graph._trusted(self.g.n, tuple(self._scan[1]))

    def scan(self) -> tuple[int, list[int], int | None]:
        """The graph's partner scan, made on first read above minimum degree 2."""
        if self._scan is None:
            self._scan = singleton_partners(self.g)
        return self._scan

    def chain(self) -> ChainResult:
        """The chain, continued from the graph's scan."""
        if self._chain is None:
            self._chain = sc_chain(self.g, scan=self.scan())
        return self._chain

    def template(self) -> ChainTemplate:
        return classify_chain(self.g, self.chain(), self.stats)

    def key(self) -> tuple[int, int, bool, bool]:
        """The hypothesis key: order, minimum degree capped at 3, a full
        vertex present, and SP."""
        return self.g.n, min(self.stats.min_degree, 3), self.stats.full_vertices != 0, self.is_sp


# ---------------------------------------------------------------------------
# Per-graph checks: the graph and its facts
# ---------------------------------------------------------------------------


# Extremal templates, built once per order.


@lru_cache(maxsize=None)
def _isolated_plus_complete(n: int) -> Graph:
    return complete(1) if n == 1 else union(complete(1), complete(n - 1))


@lru_cache(maxsize=None)
def _near_one_full(n: int) -> Graph:
    # complete graph on n-1 vertices, one extra vertex tied to one of them
    return union(complete(1), complete(n - 1)).with_edge(0, 1)


@lru_cache(maxsize=None)
def _two_full_join(n: int) -> Graph:
    return join(union(complete(1), complete(n - 3)), complete(2))


_TRIANGLE = complete(3)


def _sp_iff_template(template: Callable[[int], Graph], g: Graph, f: _Facts) -> str | None:
    """The graph is SP exactly when it is isomorphic to ``template(g.n)``."""
    extremal = are_isomorphic(g, template(g.n))
    if f.is_sp != extremal:
        return f"sp={f.is_sp} but isomorphic-to-extremal={extremal}"
    return None


_check_thm1 = partial(_sp_iff_template, _isolated_plus_complete)


def _check_thm4(g: Graph, f: _Facts) -> str | None:
    wit = f.f1()
    if (wit is not None) != f.is_sp:
        return f"recognizer={'hit' if wit else 'miss'} but sp={f.is_sp}"
    if wit is not None:
        bad = f1_violations(g, wit, f.stats)
        if bad:
            return "witness violations: " + "; ".join(bad)
    return None


def _check_thm6(g: Graph, f: _Facts) -> str | None:
    if not f.is_sp:
        return "family member is not a singleton-partition graph"
    image = f.image()
    wit = recognize_h1(image)
    if wit is None:
        return "singleton-coalition image not in the bipartite image family"
    bad = h1_violations(image, wit)
    if bad:
        return "image witness violations: " + "; ".join(bad)
    return None


def _check_obs7_cycle(g: Graph, f: _Facts) -> str | None:
    n = g.n
    if f.is_sp != (n <= 6):
        return f"C_{n}: sp={f.is_sp}"
    f2 = recognize_f2(g, f.stats) is not None
    if f2 != (4 <= n <= 6):
        return f"C_{n}: family-recognizer={f2}"
    return None


def _obs7_cycles(n_max: int, enumerated: bool) -> Iterator[tuple[None, Graph]]:
    """The cycles of orders 3..max(n_max, 10), whose details name their order."""
    return ((None, cycle(n)) for n in range(3, max(n_max, 10) + 1))


def _check_thm8(g: Graph, f: _Facts) -> str | None:
    wit = recognize_f2(g, f.stats)
    if (wit is not None) != f.is_sp:
        return f"recognizer={'hit' if wit else 'miss'} but sp={f.is_sp}"
    if wit is not None:
        bad = f2_violations(g, wit, f.stats)
        if bad:
            return "witness violations: " + "; ".join(bad)
    return None


def _check_thm9(g: Graph, f: _Facts) -> str | None:
    full_count = f.stats.full_count
    if full_count == 1:
        full = f.stats.full_vertices.bit_length() - 1
        rest_in_family = recognize_f1(g.delete_vertex(full)) is not None
        if f.is_sp != rest_in_family:
            return f"sp={f.is_sp} but remainder-in-family={rest_in_family}"
    elif full_count == 2:
        return _sp_iff_template(_two_full_join, g, f)
    else:
        if not are_isomorphic(g, _TRIANGLE):
            return "three or more full vertices on a non-triangle"
    return None


def _check_thm13(g: Graph, f: _Facts) -> str | None:
    if not f.is_sp:
        return "family member is not a singleton-partition graph"
    image = f.image()
    wit = recognize_h2(image)
    if wit is None:
        return "singleton-coalition image not in the degree-2 image family"
    bad = h2_violations(image, wit)
    if bad:
        return "image witness violations: " + "; ".join(bad)
    return None


def _check_label_by_order(labels: dict[int, str], g: Graph, f: _Facts) -> str | None:
    """The chain's template is the label of the graph's order, the largest
    order in ``labels`` standing for every larger one."""
    label = f.template().label
    want = labels[min(g.n, max(labels))]
    return None if label == want else f"classified {label}, expected {want}"


def _check_thm16(g: Graph, f: _Facts) -> str | None:
    label = f.template().label
    if label not in {"Thm16(a)", "Thm16(b)", "Thm16(c)"}:
        return f"classified {label}"
    return None


def _check_thm17(g: Graph, f: _Facts) -> str | None:
    lv = l_scc_of(f.chain())
    if lv.kind == "finite" and lv.value == 1:
        return None
    return f"chain length {lv.kind}:{lv.value}"


def _lscc_key(lv: LsccValue) -> str:
    if lv.kind == "finite":
        return str(lv.value)
    if lv.kind == "infinite":
        return "inf"
    return f"unknown@{lv.cap}"


def _check_thm20(g: Graph, f: _Facts) -> tuple[str | None, str]:
    lv = l_scc_of(f.chain())
    key = _lscc_key(lv)
    if lv.kind == "infinite" or (lv.kind == "finite" and lv.value is not None and lv.value <= 5):
        return None, key
    return f"chain length {key} outside the allowed range", key


def _lscc_histogram(tally: _Tally, enumerated: bool) -> dict:
    """The chain lengths the checks counted, present even when empty."""
    return {"lscc_histogram": dict(sorted(tally.histogram.items()))}


# the lemma of each image subfamily H2.1, H2.2 and H2.3
_LEMMAS = ("Lem18", "Lem19", "LemH23")


def _check_lemma_bucket(subfamily: int, g: Graph, f: _Facts) -> str | None:
    chain = f.chain()
    image = chain.sequence[1]
    # the image is SP exactly when the chain does not stop at it
    if chain.outcome == TerminatedNonSp(1) or recognize_h2(image, subfamily) is None:
        return None  # outside this lemma's hypothesis
    try:
        template = f.template()
    except ChainClassificationError as exc:
        return f"unclassified chain: {exc}"
    # Lemmas 19 and H2.3 take each other's chains when the image is in both
    # subfamilies. A Lemma 18 chain counts under its own lemma only: an H2.1
    # member has two adjacent full vertices (y' and z' see x', each other and
    # all of R1), while an H2.2 or H2.3 member has at most one, so no image
    # is in H2.1 and in another subfamily.
    other = 5 - subfamily  # H2.2 and H2.3 swap
    ok = template.lemma == _LEMMAS[subfamily - 1] or (
        subfamily != 1
        and template.lemma == _LEMMAS[other - 1]
        and recognize_h2(image, other) is not None
    )
    return None if ok else f"classified {template.label}, outside the lemma's chain list"


# ---------------------------------------------------------------------------
# Seeded generator sweeps (closure checks)
# ---------------------------------------------------------------------------


def _f1_combos() -> list[tuple[str, dict]]:
    combos = []
    for n in range(4, 10):
        rest = n - 3
        for q in [0] + list(range(2, rest + 1)):
            combos.append(("f1", {"P": rest - q, "Q": q}))
    return combos


def _f2_combos() -> list[tuple[str, dict]]:
    combos: list[tuple[str, dict]] = []
    for n in range(4, 10):
        rest = n - 3
        combos.append(("f2.1", {"R1": rest}))
        for l1 in range(1, rest):
            combos.append(("f2.2", {"L1": l1, "R1": rest - l1}))
        for l1 in range(1, rest):
            for r2 in range(1, rest - l1 + 1):
                left = rest - l1 - r2
                for r1 in range(0, left + 1):
                    combos.append(
                        ("f2.3", {"L1": l1, "R1": r1, "R2": r2, "L2": 0, "W": left - r1})
                    )
    return combos


_SEEDED = 500  # generations per claim in an enumerated run


def _seeded(
    combos: Callable[[], list[tuple[str, dict]]], n_max: int, enumerated: bool
) -> Iterator[tuple[FamilySpec, Graph]]:
    """In an enumerated run, the first _SEEDED generations of rounds through
    ``combos()``, round k with seed k, each named by its spec.
    ``generate_family`` re-recognizes what it builds, so each graph is a
    family member."""
    if not enumerated:
        return
    pairs = combos()
    for k in range(_SEEDED):
        seed, i = divmod(k, len(pairs))
        family, sizes = pairs[i]
        spec = FamilySpec(family, dict(sizes), seed)
        yield spec, generate_family(spec)


def _seeded_count(tally: _Tally, enumerated: bool) -> dict:
    return {"seeded_generations": _SEEDED} if enumerated else {}


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


class _TheoremDef(NamedTuple):
    """A claim: its per-graph check, its hypothesis as data, its graphs
    beyond the pool and its report extras.

    A graph is in the hypothesis class when its order is at least
    ``min_order``, its minimum degree is ``min_degree``, it has a full
    vertex (``full`` True) or none (False) or either (None), it is SP when
    ``sp`` is set and a degree-1 family member when ``f1_member`` is set.
    A claim without ``min_degree`` checks no pool graph. ``own(n_max,
    enumerated)`` gives (name or None, graph) pairs checked after the pool,
    a failure's detail starting with its name; ``extras(tally, enumerated)``
    gives the report's extras.
    """

    min_order: int
    check: Callable[[Graph, _Facts], object]
    min_degree: int | None = None
    full: bool | None = None
    sp: bool = False
    f1_member: bool = False
    notes: tuple[str, ...] = ()
    own: Callable[[int, bool], Iterable[tuple[object, Graph]]] = lambda n_max, enumerated: ()
    extras: Callable[[_Tally, bool], dict] = lambda tally, enumerated: {}

    def admits(self, key: tuple[int, int, bool, bool]) -> bool:
        """Whether a graph with this ``_Facts.key`` meets the hypothesis,
        degree-1 family membership aside."""
        n, min_degree, full, sp = key
        return (
            n >= self.min_order
            and min_degree == self.min_degree
            and self.full in (None, full)
            and (sp or not self.sp)
        )


THEOREMS: dict[str, _TheoremDef] = {
    "thm1": _TheoremDef(
        1,
        _check_thm1,
        min_degree=0,
    ),
    "thm2": _TheoremDef(
        3,
        # a full vertex is the one neighbour of a degree-1 vertex, so from
        # order 3 up minimum degree 1 allows at most one
        partial(_sp_iff_template, _near_one_full),
        min_degree=1, full=True,
    ),
    "thm4": _TheoremDef(
        2,
        _check_thm4,
        min_degree=1, full=False,
    ),
    "thm6": _TheoremDef(
        4,
        _check_thm6,
        min_degree=1, full=False, f1_member=True,
        own=partial(_seeded, _f1_combos), extras=_seeded_count,
    ),
    "obs7": _TheoremDef(
        3,
        _check_obs7_cycle,
        own=_obs7_cycles,
    ),
    "thm8": _TheoremDef(
        4,
        _check_thm8,
        min_degree=2, full=False,
    ),
    "thm9": _TheoremDef(
        3,
        _check_thm9,
        min_degree=2, full=True,
    ),
    "thm13": _TheoremDef(
        4,
        _check_thm13,
        min_degree=2, full=False, sp=True,
        own=partial(_seeded, _f2_combos), extras=_seeded_count,
    ),
    "thm14": _TheoremDef(
        1,
        partial(
            _check_label_by_order, {1: "Thm14(a)", 2: "Thm14(b)", 3: "Thm14(d)", 4: "Thm14(c)"}
        ),
        min_degree=0, sp=True,
    ),
    "thm15": _TheoremDef(
        2,
        partial(_check_label_by_order, {2: "Thm15(a)", 3: "Thm15(c)", 4: "Thm15(b)"}),
        min_degree=1, full=True, sp=True,
        notes=(
            "case (b) is phrased with the length-1 conclusion in its hypothesis; "
            "the check asserts the content: above order 3 the image is the "
            "one-isolated-vertex star and the chain stops after one arrow",
        ),
    ),
    "thm16": _TheoremDef(
        4,
        _check_thm16,
        min_degree=1, full=False, sp=True,
    ),
    "thm17": _TheoremDef(
        3,
        _check_thm17,
        min_degree=2, full=True, sp=True,
    ),
    "thm20": _TheoremDef(
        4,
        _check_thm20,
        min_degree=2, full=False, sp=True,
        extras=_lscc_histogram,
    ),
    "lem18": _TheoremDef(
        4,
        partial(_check_lemma_bucket, 1),
        min_degree=2, full=False, sp=True,
    ),
    "lem19": _TheoremDef(
        4,
        partial(_check_lemma_bucket, 2),
        min_degree=2, full=False, sp=True,
    ),
    "lem-h23": _TheoremDef(
        4,
        partial(_check_lemma_bucket, 3),
        min_degree=2, full=False, sp=True,
        notes=(
            "two catalog entries are corrected to the computed images "
            "(labels LemH23(f*) and LemH23(w*))",
        ),
    ),
}


def all_theorem_ids() -> list[str]:
    return list(THEOREMS)


class _Tally:
    """One claim's results over the graphs of a chunk, or of a run once the
    chunks' tallies are merged in pool order and the tally of the claim's
    own graphs (``_own_tally``) after them: the graphs checked, their check
    seconds, least and greatest order, the histogram of the keys a check
    returns with its verdict as a (verdict, key) pair, and the failures as
    counterexamples."""

    __slots__ = ("count", "seconds", "lo", "hi", "histogram", "counterexamples")

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0
        self.lo = self.hi = 0
        self.histogram: dict[str, int] = {}
        self.counterexamples: list[dict] = []

    def _span(self, n: int, count: int) -> None:
        """Count ``count`` > 0 more graphs, of order ``n``."""
        if not self.count:
            self.lo = self.hi = n
        elif n < self.lo:
            self.lo = n
        elif n > self.hi:
            self.hi = n
        self.count += count

    def add(self, g: Graph, result: object, seconds: float, name: object = None) -> None:
        """Count one check of ``g``; a failure's detail follows ``name``, if any."""
        if isinstance(result, tuple):
            result, key = result
            self.histogram[key] = self.histogram.get(key, 0) + 1
        self._span(g.n, 1)
        self.seconds += seconds
        if result:
            detail = result if name is None else f"{name}: {result}"
            self.counterexamples.append({"graph6": emit_graph6(g), "detail": detail})

    def add_batch(self, claim: _TheoremDef, n: int, batch: list) -> list[tuple[int, dict]]:
        """Check ``claim`` on each (index, graph, facts) entry of ``batch``,
        the graphs of one hypothesis key, of order ``n``, in one timed loop
        and count them at once; return each failure as (index,
        counterexample). A claim that needs degree-1 family membership
        skips a non-member, untimed."""
        if claim.f1_member:
            batch = [entry for entry in batch if entry[2].f1() is not None]
            if not batch:
                return []
        check = claim.check
        start = time.perf_counter()
        results = [check(g, f) for _, g, f in batch]
        self.seconds += time.perf_counter() - start
        self._span(n, len(batch))
        if isinstance(results[0], tuple):
            histogram = self.histogram
            for _, key in results:
                histogram[key] = histogram.get(key, 0) + 1
            results = [result for result, _ in results]
        if not any(results):
            return []
        return [
            (i, {"graph6": emit_graph6(g), "detail": result})
            for (i, g, _), result in zip(batch, results)
            if result
        ]

    def merge(self, other: "_Tally") -> None:
        if not other.count:
            return
        self.lo = min(self.lo, other.lo) if self.count else other.lo
        self.hi = max(self.hi, other.hi)
        self.count += other.count
        self.seconds += other.seconds
        for key, n in other.histogram.items():
            self.histogram[key] = self.histogram.get(key, 0) + n
        self.counterexamples += other.counterexamples


def _run_chunk(
    claims: tuple[tuple[int, _TheoremDef], ...], due: dict, n_ids: int, chunk
) -> list[list[_Tally]]:
    """The tallies of one chunk, one per claim of the run (``n_ids``), as
    the one result of the chunk: no per-graph result leaves the chunk.

    ``claims`` holds the (claim index, row) entries of the claims that read
    the pool. The whole chunk is decoded first, so a malformed item raises
    even when no claim reads the pool. Then the degree stats and partner
    scans of all its graphs are computed at once, one ``singleton_scans``
    call per order (``_chunk_scans``), and each graph of a minimum degree
    some claim reads gets its ``_Facts`` from its lane, in the batch of its
    ``_Facts.key``; no claim admits the key of any other graph. The claims
    of a key are looked up in ``due``, a table the run fills as keys first
    appear, and each runs over the key's whole batch before the next
    (``_Tally.add_batch``), so that one check's code and data stay warm.
    A claim's failures are sorted by their index in the chunk, so its
    counterexamples come in pool order. A claim that needs degree-1 family
    membership skips a non-member, so the family is recognized only for
    graphs such a claim admits.
    """
    tallies = [_Tally() for _ in range(n_ids)]
    graphs = chunk.parse()
    if not claims or not graphs:
        return [tallies]
    top = max(claim.min_degree for _, claim in claims)
    batches: dict[tuple[int, int, bool, bool], list] = {}
    scans = _chunk_scans(graphs)
    for i, ((g, _), (low, full, partners, blocking)) in enumerate(zip(graphs, scans)):
        if low <= top:
            f = _Facts(g, DegreeStats(low, full), (full, partners, blocking))
            batches.setdefault(f.key(), []).append((i, g, f))
    failed: list[list] = [[] for _ in range(n_ids)]
    for key, batch in batches.items():
        if key not in due:
            due[key] = tuple((k, claim) for k, claim in claims if claim.admits(key))
        for k, claim in due[key]:
            failed[k] += tallies[k].add_batch(claim, key[0], batch)
    for tally, failures in zip(tallies, failed):
        failures.sort(key=itemgetter(0))
        tally.counterexamples = [counterexample for _, counterexample in failures]
    return [tallies]


def _own_tally(claim: _TheoremDef, n_max: int, enumerated: bool) -> _Tally:
    """The tally of a claim's own graphs, each checked through its facts
    and timed by its check, like a pool graph; a graph that comes again
    takes its first verdict."""
    tally = _Tally()
    verdicts: dict[Graph, object] = {}
    for name, g in claim.own(n_max, enumerated):
        seconds = 0.0
        if g not in verdicts:
            f = _Facts(g)
            start = time.perf_counter()
            verdicts[g] = claim.check(g, f)
            seconds = time.perf_counter() - start
        tally.add(g, verdicts[g], seconds, name)
    return tally


def verify_claims(
    theorem_ids: Iterable[str],
    n_max: int = 6,
    jobs: int = 1,
    graphs: Iterable | None = None,
) -> Iterator[TheoremReport]:
    """Run claims in one pass over one pool, yielding one report per claim.

    The pool is a packed pool (``graphs.Graph6Lines``, ``canon.CodePool``),
    or supplied graphs or canonical codes, packed as graph6 lines
    (``_pool``), or else the classes of orders 1..n_max whose minimum
    degree is at most the largest ``min_degree`` of the run's claims
    (``canon.class_pool``), enumerated once and only when a claim reads the
    pool; each claim takes the graphs of its hypothesis class, from its
    least order up. The pool is cut into chunks of at most about
    ``_CHUNK_MAX`` records (``_pmap``), and each chunk is decoded and
    checked in one worker under ``jobs`` > 1: every graph's facts are
    computed once, the graphs are batched by hypothesis key, each claim
    whose hypothesis a key meets is checked over the key's batch, and the
    chunk returns one tally per claim (``_run_chunk``), which the run
    merges in pool order, so the counterexamples come in pool order; the
    tally of a claim's own graphs (``_own_tally``) is merged last, and each
    report is built once from its claim's tally, with its row's extras. A
    supplied pool is decoded even when no claim reads it, so a malformed
    item raises first: a malformed listed code as the pool is packed,
    before any chunk runs. A report's ``elapsed`` is the time of its
    claim's own checks, taken once per batch; the pool, its decoding and
    the facts are charged to no claim. The ids are taken up to the first
    unknown id or order below the least order of a claim that reads the
    pool, whose error is raised after the reports of the claims before it;
    an enumeration above ``ENUM_MAX`` raises before any report.
    """
    enumerated = graphs is None
    ids: list[str] = []
    error = None
    for theorem_id in theorem_ids:
        claim = THEOREMS.get(theorem_id)
        if claim is None:
            error = KeyError(f"unknown theorem id {theorem_id!r}; known: {all_theorem_ids()}")
            break
        # a claim that reads no pool checks graphs of its own orders
        if enumerated and claim.min_degree is not None and n_max < claim.min_order:
            error = ValueError(
                f"{theorem_id} needs order at least {claim.min_order}, got n_max={n_max}"
            )
            break
        ids.append(theorem_id)

    rows = [THEOREMS[t] for t in ids]
    claims = tuple((k, claim) for k, claim in enumerate(rows) if claim.min_degree is not None)
    if not enumerated:
        pool = _pool(graphs)
    elif claims:
        # no claim reads a class above the largest minimum degree of the run
        pool = class_pool(1, n_max, max(claim.min_degree for _, claim in claims))
    else:
        pool = class_pool(1, 0)  # no order
    totals = [_Tally() for _ in ids]
    for tallies in _pmap(partial(_run_chunk, claims, {}, len(ids)), pool, jobs):
        for total, tally in zip(totals, tallies):
            total.merge(tally)

    for t, claim, total in zip(ids, rows, totals):
        total.merge(_own_tally(claim, n_max, enumerated))
        if enumerated and claim.min_degree is not None:
            order_range = (claim.min_order, n_max)
        else:
            order_range = (total.lo, total.hi)
        yield TheoremReport(
            theorem_id=t,
            order_range=order_range,
            graphs_checked=total.count,
            passed=not total.counterexamples,
            counterexamples=total.counterexamples,
            elapsed=total.seconds,
            notes=claim.notes,
            extras=claim.extras(total, enumerated),
        )
    if error is not None:
        raise error


def verify_theorem(
    theorem_id: str,
    n_max: int = 6,
    jobs: int = 1,
    graphs: Iterable[Graph] | None = None,
) -> TheoremReport:
    """Run one claim over its hypothesis class up to ``n_max`` (or over the
    supplied graphs) and report pass/fail with counterexample certificates."""
    return next(verify_claims([theorem_id], n_max, jobs, graphs))


# ---------------------------------------------------------------------------
# Chain sweeps
# ---------------------------------------------------------------------------


def _lscc_json(lv: LsccValue) -> dict:
    out: dict = {"kind": lv.kind.capitalize()}
    if lv.value is not None:
        out["value"] = lv.value
    if lv.cap is not None:
        out["cap"] = lv.cap
    if lv.start_not_sp:
        out["start_not_sp"] = True
    if lv.late_entry_cycle:
        out["late_entry_cycle"] = True
    return out


# an outcome's record is its fields, sorted as they stand, and its type
_OUTCOME_TYPES = {TerminatedNonSp: "terminated", CycleOutcome: "cycle", StepCap: "step-cap"}


# The not-SP record of ``chain_record`` as ``cli._json_line`` prints it, keys
# sorted, with its line end; only the %-fields vary (``cli._sweep_json_line``
# fills them).
_NOT_SP_JSON_LINE = (
    '{"blocking_vertex": %d, "chain": [%s], "full_vertices": %d, "graph6": %s, '
    '"lscc": {"kind": "Finite", "start_not_sp": true, "value": 0}, "min_degree": %d, '
    '"order": %d, "outcome": {"last_index": 0, "type": "terminated"}, '
    f'"schema_version": {SCHEMA_VERSION}, "status": "not-sp", "template": null}}\n'
)


def chain_record(g: Graph, g6: str | None = None) -> dict:
    """One sweep record: chain, length, and template label (or a status).

    ``g6`` is the graph6 text of ``g`` when the caller holds it; it becomes
    the record's ``graph6`` and first chain member, encoded afresh otherwise.
    A start that is not SP is its own one-member chain, so its record comes
    from its partner scan and no chain is built; ``_NOT_SP_JSON_LINE`` is its
    printed line, which a test holds equal to the encoded record. Records are
    built in the sorted key order they are printed in, an unclassified
    one's ``detail`` aside.
    """
    if g6 is None:
        g6 = emit_graph6(g)
    stats = degree_stats(g)
    if g.n > CANON_MAX:
        return _record(g, g6, (stats.min_degree, stats.full_vertices, None, None))
    return _record(g, g6, (stats.min_degree, *singleton_partners(g)))


def _record(g: Graph, g6: str, facts: tuple[int, int, list[int] | None, int | None]) -> dict:
    """``chain_record`` of ``g``, given its graph6 text and its facts as
    ``singleton_scans`` gives them: minimum degree, full vertices, partner
    masks and blocking vertex, the last two unread above ``CANON_MAX``."""
    low, full, partners, blocking = facts
    if g.n > CANON_MAX:
        return {
            "full_vertices": full.bit_count(),
            "graph6": g6,
            "min_degree": low,
            "order": g.n,
            "schema_version": SCHEMA_VERSION,
            "status": "order-above-chain-support",
            "template": None,
        }
    if blocking is not None:
        return {
            "blocking_vertex": blocking,
            "chain": [g6],
            "full_vertices": full.bit_count(),
            "graph6": g6,
            "lscc": {"kind": "Finite", "start_not_sp": True, "value": 0},
            "min_degree": low,
            "order": g.n,
            "outcome": {"last_index": 0, "type": "terminated"},
            "schema_version": SCHEMA_VERSION,
            "status": "not-sp",
            "template": None,
        }
    stats = DegreeStats(low, full)
    f = _Facts(g, stats, (full, partners, None))
    chain = f.chain()
    out = chain.outcome
    rec = {
        "chain": [g6, *map(emit_graph6, chain.sequence[1:])],
        "full_vertices": stats.full_count,
        "graph6": g6,
        "lscc": _lscc_json(l_scc_of(chain)),
        "min_degree": stats.min_degree,
        "order": g.n,
        "outcome": {**out._asdict(), "type": _OUTCOME_TYPES[type(out)]},
        "schema_version": SCHEMA_VERSION,
        "status": "out-of-characterized-range",
        "template": None,
    }
    if stats.min_degree <= 2:
        try:
            template = f.template()
        except ChainClassificationError as exc:
            rec.update(status="unclassified", detail=str(exc))
        else:
            rec.update(status="classified", template=template.label)
            if template.notes:
                rec["template_notes"] = list(template.notes)
    return rec


def _sweep_chunk(render: Callable[[dict], object], chunk) -> list:
    """The rendered records of a chunk's graphs; a graph6 line becomes its
    record's graph6 instead of encoding the graph again. The whole chunk is
    decoded first, and the degree stats and partner scans of all its
    graphs, every start whatever its minimum degree, come from one
    ``singleton_scans`` call per order (``_chunk_scans``)."""
    graphs = chunk.parse()
    return [
        render(_record(g, emit_graph6(g) if g6 is None else g6, facts))
        for (g, g6), facts in zip(graphs, _chunk_scans(graphs))
    ]


def sweep_chains(
    items: Iterable, jobs: int = 1, *, render: Callable[[dict], object] = _itself
) -> Iterator:
    """An iterator over the chain records of a pool, in pool order, that
    hands out each chunk's records as they come back.

    The pool is a packed pool (``graphs.Graph6Lines``, ``canon.CodePool``),
    or graphs or canonical codes, packed as graph6 lines (``_pool``); a line
    becomes its record's graph6 instead of encoding the graph again, and
    equals that encoding. ``render`` turns each record into the result (the
    record dict by default). A chunk is decoded and rendered where its
    chains are built, in a worker under ``jobs`` > 1, so that workers read
    the pool they inherit and return finished output lines. A malformed item
    raises here, before the iterator is returned and any chunk runs: a
    listed code as the pool is packed, a graph6 line through
    ``Graph6Lines.check``. Close the iterator to end a run early; its
    workers are then killed and reaped.
    """
    if isinstance(items, Graph6Lines):
        items.check()
    return _pmap(partial(_sweep_chunk, render), _pool(items), jobs)
