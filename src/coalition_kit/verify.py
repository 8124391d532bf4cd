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
from typing import Callable, Iterable, Iterator, NamedTuple

from .canon import are_isomorphic, class_codes, graph_from_code
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
from .domination import singleton_partners, sp_check
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
    Graph,
    complete,
    cycle,
    degree_stats,
    emit_graph6,
    graph6_record_text,
    join,
    parse_graph6_record,
    union,
)
from .limits import CANON_MAX

SCHEMA_VERSION = 1


class TheoremReport:
    """One claim's result; the run fills it in as graphs are checked."""

    __slots__ = (
        "theorem_id", "order_range", "graphs_checked", "passed",
        "counterexamples", "elapsed", "notes", "extras",
    )

    def __init__(
        self,
        theorem_id: str,
        order_range: tuple[int, int],
        graphs_checked: int,
        passed: bool,
        counterexamples: list[dict],
        elapsed: float,
        notes: tuple[str, ...] = (),
        extras: dict | None = None,
    ) -> None:
        self.theorem_id = theorem_id
        self.order_range = order_range
        self.graphs_checked = graphs_checked
        self.passed = passed
        self.counterexamples = counterexamples
        self.elapsed = elapsed
        self.notes = notes
        self.extras = {} if extras is None else extras

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


def _pmap(chunk_fn: Callable[[list], list], items: list, jobs: int) -> Iterator:
    """Per-item results of ``chunk_fn``, yielded in input order.

    ``items`` is cut into contiguous chunks, about _CHUNKS_PER_WORKER per
    worker, and ``chunk_fn`` maps one chunk to the list of its items'
    results. When ``jobs`` <= 1 the chunks run in-process, chunk by chunk.
    Otherwise chunk i runs in forked worker i % ``jobs``: workers inherit
    ``items`` and ``chunk_fn``, so nothing is sent to them, and each writes
    every chunk's pickled results, or the exception of its first failing
    chunk, as one length-prefixed frame to its own pipe. The parent reads
    the frames in chunk order and raises that exception where its chunk's
    results would have been. A worker that ends without sending its frames
    fails the run. Every worker is reaped when the generator ends, fails or
    is closed; one still running then is killed first. The caller must run
    no other thread, which a forked child would not have.
    """
    workers = max(jobs, 1)
    size = max(1, -(-len(items) // (_CHUNKS_PER_WORKER * workers)))
    starts = range(0, len(items), size)
    if workers == 1 or len(starts) <= 1:
        for start in starts:
            yield from chunk_fn(items[start : start + size])
        return
    # imported here, so that a serial run does not pay for them
    import pickle
    import signal

    workers = min(workers, len(starts))
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
                        for start in starts[w::workers]:
                            try:
                                frame = True, chunk_fn(items[start : start + size])
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
        for i in range(len(starts)):
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
            # that stops here (``zip`` does) has them reaped, not killed
            finished = i == len(starts) - 1
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


def _decode(item) -> Graph:
    """A pool item's graph.

    An item is a ``Graph``, a canonical code, or a ``graphs.graph6_records``
    entry, whose malformed record raises ``Graph6Error`` prefixed with its
    path and line number.
    """
    if isinstance(item, Graph):
        return item
    if isinstance(item, bytes):
        return graph_from_code(item)
    return parse_graph6_record(item)


def _run_chunk(per_graph: Callable[[Graph, object], object], chunk: list) -> list:
    """Decode every item of ``chunk``, then map ``per_graph`` over the
    (graph, item) pairs."""
    # decoding the whole chunk before building any chain measured about 10%
    # faster than interleaving the two graph by graph
    decoded = [_decode(item) for item in chunk]
    return [per_graph(g, item) for g, item in zip(decoded, chunk)]


def _cex(g: Graph, detail: str) -> dict:
    return {"graph6": emit_graph6(g), "detail": detail}


# ---------------------------------------------------------------------------
# Facts, computed once per graph
# ---------------------------------------------------------------------------


class _Facts:
    """One graph's facts, as the claim table, the checks and sweep records
    read them.

    For minimum degree <= 2, the range every claim covers, one
    ``singleton_partners`` scan is the singleton-partition verdict, the
    image (its partner masks) and the chain's first arrow; above it the
    verdict is False. The rest is computed on first read. A ``_Facts`` lives
    while its graph is checked, so nothing outlives a run.
    """

    __slots__ = ("g", "stats", "is_sp", "_scan", "_f1", "_chain")

    def __init__(self, g: Graph):
        self.g = g
        self.stats = stats = degree_stats(g)
        self._scan = singleton_partners(g) if stats.min_degree <= 2 else None
        self.is_sp = self._scan is not None and self._scan[2] is None
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

    def chain(self) -> ChainResult:
        """The chain, from the held scan (which ``sc_chain`` takes above minimum degree 2)."""
        if self._chain is None:
            self._chain = sc_chain(self.g, scan=self._scan)
        return self._chain

    def template(self) -> ChainTemplate:
        return classify_chain(self.g, self.chain(), self.stats)

    def label(self) -> str:
        return self.template().label

    def key(self, f1_due: bool) -> tuple[int, int, bool, bool, bool]:
        """The hypothesis key: order, minimum degree capped at 3, a full
        vertex present, SP, and degree-1 family membership, which is
        recognized only when ``f1_due`` is set."""
        min_degree = min(self.stats.min_degree, 3)
        full = self.stats.full_count > 0
        # x's one neighbour y misses the hub w, whose row is P | Q, so a
        # member has no full vertex; and no isolated one, so minimum degree 1
        member = f1_due and min_degree == 1 and not full and self.f1() is not None
        return self.g.n, min_degree, full, self.is_sp, member


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


def _check_obs7_cycle(n: int) -> tuple[Graph, str] | None:
    g = cycle(n)
    sp = sp_check(g).is_sp
    if sp != (n <= 6):
        return g, f"C_{n}: sp={sp}"
    f2 = recognize_f2(g) is not None
    if f2 != (4 <= n <= 6):
        return g, f"C_{n}: family-recognizer={f2}"
    return None


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
        return None  # hypothesis is the SP side; thm8 covers the equivalence
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
    label = f.label()
    want = labels[min(g.n, max(labels))]
    return None if label == want else f"classified {label}, expected {want}"


def _check_thm16(g: Graph, f: _Facts) -> str | None:
    label = f.label()
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


def _seeded_specs(combos: list[tuple[str, dict]], count: int) -> list[FamilySpec]:
    """The first ``count`` specs of rounds through ``combos``, round k with seed k."""
    specs = []
    for k in range(count):
        seed, i = divmod(k, len(combos))
        family, sizes = combos[i]
        specs.append(FamilySpec(family, dict(sizes), seed))
    return specs


def _check_generation(
    check: Callable[[Graph, _Facts], str | None],
    verdicts: dict[Graph, str | None],
    spec: FamilySpec,
) -> tuple[Graph, str] | None:
    """Check the graph ``spec`` generates, once per distinct graph: a graph
    already in ``verdicts`` takes its verdict from there. ``generate_family``
    re-recognizes what it builds, so the graph is a family member."""
    g = generate_family(spec)
    if g not in verdicts:
        verdicts[g] = check(g, _Facts(g))
    detail = verdicts[g]
    if detail:
        return g, f"{spec}: {detail}"
    return None


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


class _TheoremDef(NamedTuple):
    """A claim, its per-graph check and its hypothesis as data.

    A graph is in the hypothesis class when its order is at least
    ``min_order``, its minimum degree is ``min_degree``, it has a full
    vertex (``full`` True) or none (False) or either (None), it is SP when
    ``sp`` is set and a degree-1 family member when ``f1_member`` is set.
    A claim without ``min_degree`` checks no pool graph (obs7 checks cycles
    of its own).
    """

    min_order: int
    check: Callable[[Graph, _Facts], object] | None = None
    min_degree: int | None = None
    full: bool | None = None
    sp: bool = False
    f1_member: bool = False
    notes: tuple[str, ...] = ()

    def admits(self, key: tuple[int, int, bool, bool, bool]) -> bool:
        """Whether a graph with this ``_Facts.key`` meets the hypothesis."""
        n, min_degree, full, sp, f1_member = key
        return (
            n >= self.min_order
            and min_degree == self.min_degree
            and self.full in (None, full)
            and (sp or not self.sp)
            and (f1_member or not self.f1_member)
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
    ),
    "obs7": _TheoremDef(
        3,
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


def _id_error(theorem_id: str, n_max: int, enumerated: bool) -> Exception | None:
    if theorem_id not in THEOREMS:
        return KeyError(f"unknown theorem id {theorem_id!r}; known: {all_theorem_ids()}")
    # a claim that reads no pool checks graphs of its own orders
    claim = THEOREMS[theorem_id]
    min_order = claim.min_order
    if enumerated and claim.min_degree is not None and n_max < min_order:
        return ValueError(f"{theorem_id} needs order at least {min_order}, got n_max={n_max}")
    return None


def _check_graph(
    claims: tuple[tuple[int, str], ...], f1_due: bool, due: dict, g: Graph, item: object
) -> tuple[int, list[tuple[int, object, float]]]:
    """Run on ``g`` every claim whose hypothesis it meets; its pool
    ``item`` is not read.

    ``claims`` holds (claim index, id) entries. The graph's claims are
    looked up by its ``_Facts.key`` in ``due``, a table the run fills as
    keys first appear, and family membership enters the key only when
    ``f1_due`` is set. Returns the graph's order and one (claim index,
    check result, seconds) entry per claim run.
    """
    if not claims:
        return g.n, []  # a pool no claim reads is decoded only for its errors
    f = _Facts(g)
    key = f.key(f1_due)
    if key not in due:
        due[key] = tuple((k, THEOREMS[t].check) for k, t in claims if THEOREMS[t].admits(key))
    results = []
    for k, check in due[key]:
        start = time.perf_counter()
        result = check(g, f)
        results.append((k, result, time.perf_counter() - start))
    return g.n, results


def _run_own_checks(report: TheoremReport, n_max: int, enumerated: bool) -> None:
    """Add the checks a claim makes outside the pool: obs7's cycles, and the
    seeded generations of thm6 and thm13 in enumerated runs."""
    if report.theorem_id == "obs7":
        top = max(n_max, 10)
        report.order_range = (3, top)
        check, items = _check_obs7_cycle, range(3, top + 1)
    elif enumerated and report.theorem_id in ("thm6", "thm13"):
        # built per run, so the checks are the module's current bindings
        family_check, combos = {
            "thm6": (_check_thm6, _f1_combos),
            "thm13": (_check_thm13, _f2_combos),
        }[report.theorem_id]
        check = partial(_check_generation, family_check, {})
        items = _seeded_specs(combos(), 500)
        report.extras["seeded_generations"] = 500
    else:
        return
    start = time.perf_counter()
    failures = [check(item) for item in items]
    report.elapsed += time.perf_counter() - start
    report.graphs_checked += len(items)
    report.counterexamples += [_cex(*item) for item in failures if item is not None]


def verify_claims(
    theorem_ids: Iterable[str],
    n_max: int = 6,
    jobs: int = 1,
    graphs: Iterable | None = None,
) -> Iterator[TheoremReport]:
    """Run claims in one pass over one pool, yielding one report per claim.

    The pool is the supplied items (graphs, canonical codes or
    ``graphs.graph6_records`` entries), or the classes of orders 1..n_max
    whose minimum degree is at most the largest ``min_degree`` of the run's
    claims (``canon.class_codes``), enumerated once and only when a claim
    reads the pool; each claim takes the graphs of its hypothesis class,
    from its least order up. Each item is decoded and visited once, in one
    worker under ``jobs`` > 1: its facts are computed, and the claims whose
    hypothesis it meets are looked up by its hypothesis key and checked
    against them. A supplied pool is decoded even when no claim reads it, so
    a malformed item raises first. A report's ``elapsed`` is the time of its
    claim's own checks; the pool, its decoding and the facts are charged to
    no claim. The ids are taken up to the first unknown id or order below
    the least order of a claim that reads the pool, whose error is raised
    after the reports of the claims before it; an enumeration above
    ``ENUM_MAX`` raises before any report.
    """
    enumerated = graphs is None
    ids: list[str] = []
    error = None
    for theorem_id in theorem_ids:
        error = _id_error(theorem_id, n_max, enumerated)
        if error is not None:
            break
        ids.append(theorem_id)

    reports = [
        TheoremReport(
            theorem_id=t,
            order_range=(THEOREMS[t].min_order, n_max) if enumerated else (0, 0),
            graphs_checked=0,
            passed=True,
            counterexamples=[],
            elapsed=0.0,
            notes=THEOREMS[t].notes,
            extras={"lscc_histogram": {}} if t == "thm20" else {},
        )
        for t in ids
    ]
    claims = tuple((k, t) for k, t in enumerate(ids) if THEOREMS[t].min_degree is not None)
    if not enumerated:
        items = list(graphs)
    elif claims:
        # no claim reads a class above the largest minimum degree of the run
        items = class_codes(1, n_max, max(THEOREMS[t].min_degree for _, t in claims))
    else:
        items = []
    f1_due = any(THEOREMS[t].f1_member for _, t in claims)
    check = partial(_check_graph, claims, f1_due, {})
    for item, (n, results) in zip(items, _pmap(partial(_run_chunk, check), items, jobs)):
        for k, result, seconds in results:
            report = reports[k]
            if not enumerated:
                lo, hi = report.order_range if report.graphs_checked else (n, n)
                report.order_range = (min(lo, n), max(hi, n))
            report.graphs_checked += 1
            report.elapsed += seconds
            if report.theorem_id == "thm20":
                result, key = result
                histogram = report.extras["lscc_histogram"]
                histogram[key] = histogram.get(key, 0) + 1
            if result:
                # failures are rare, so the parent decodes only their items
                report.counterexamples.append(_cex(_decode(item), result))

    for report in reports:
        _run_own_checks(report, n_max, enumerated)
        if "lscc_histogram" in report.extras:
            report.extras["lscc_histogram"] = dict(sorted(report.extras["lscc_histogram"].items()))
        report.passed = not report.counterexamples
        yield report
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


def chain_record(g: Graph, g6: str | None = None) -> dict:
    """One sweep record: chain, length, and template label (or a status).

    ``g6`` is the graph6 text of ``g`` when the caller holds it; it becomes
    the record's ``graph6`` and first chain member, encoded afresh otherwise.
    """
    f = _Facts(g) if g.n <= CANON_MAX else None
    stats = f.stats if f else degree_stats(g)
    if g6 is None:
        g6 = emit_graph6(g)
    rec: dict = {
        "schema_version": SCHEMA_VERSION,
        "graph6": g6,
        "order": g.n,
        "min_degree": stats.min_degree,
        "full_vertices": stats.full_count,
    }
    if f is None:
        return dict(rec, status="order-above-chain-support", template=None)
    chain = f.chain()
    lv = l_scc_of(chain)
    rec["chain"] = [g6] + [emit_graph6(h) for h in chain.sequence[1:]]
    out = chain.outcome
    if isinstance(out, TerminatedNonSp):
        rec["outcome"] = {"type": "terminated", "last_index": out.last_index}
    elif isinstance(out, CycleOutcome):
        rec["outcome"] = {"type": "cycle", "entry_index": out.entry_index, "period": out.period}
    elif isinstance(out, StepCap):
        rec["outcome"] = {"type": "step-cap", "cap": out.cap}
    rec["lscc"] = _lscc_json(lv)
    if lv.start_not_sp:
        rec.update(status="not-sp", template=None, blocking_vertex=chain.blocking_vertex)
    elif stats.min_degree >= 3:
        rec.update(status="out-of-characterized-range", template=None)
    else:
        try:
            template = f.template()
        except ChainClassificationError as exc:
            rec.update(status="unclassified", template=None, detail=str(exc))
        else:
            rec.update(status="classified", template=template.label)
            if template.notes:
                rec["template_notes"] = list(template.notes)
    return rec


def _sweep_record(render: Callable[[dict], object], g: Graph, item: object) -> object:
    """The rendered record of ``g``, whose graph6 is the text of its pool
    ``item`` when that is a ``graphs.graph6_records`` entry."""
    return render(chain_record(g, graph6_record_text(item) if isinstance(item, tuple) else None))


def sweep_chains(
    items: Iterable, jobs: int = 1, *, render: Callable[[dict], object] = _itself
) -> list:
    """Chain records for a pool of items, input order preserved.

    The items are graphs, canonical codes or ``graphs.graph6_records``
    entries, whose record text becomes the record's graph6 instead of
    encoding the graph again. ``render`` turns each record into the result
    (the record dict by default). Items are decoded and rendered where the
    chain is built, in the worker under ``jobs`` > 1, so that workers can
    take graph6 text and return finished output lines. A malformed item
    raises, and no result is returned.
    """
    return list(_pmap(partial(_run_chunk, partial(_sweep_record, render)), list(items), jobs))
