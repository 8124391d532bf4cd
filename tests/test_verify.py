"""The claim registry, report format, and chain sweeps."""

from __future__ import annotations

import json
import os
import pickle
import random
import signal
import time
from collections import Counter
from functools import partial
from types import SimpleNamespace

import pytest

import coalition_kit
import coalition_kit.verify as verify_mod
from coalition_kit import (
    all_theorem_ids,
    parse_graph6,
    sweep_chains,
    verify_claims,
    verify_theorem,
)
from coalition_kit import domination
from coalition_kit import graphs as graphs_mod
from coalition_kit import chains, cli, coalition_graph
from coalition_kit.canon import CodePool, class_pool, enumerate_graphs
from coalition_kit.chains import TerminatedNonSp, sc_chain
from coalition_kit.coalition_graph import sc_graph
from coalition_kit.families import FamilySpec, recognize_h2
from coalition_kit.graphs import (
    DegreeStats,
    Graph,
    Graph6Lines,
    complete,
    cycle,
    degree_stats,
    emit_graph6,
    union,
)
from coalition_kit.limits import ENUM_MAX
from coalition_kit.verify import chain_record


def test_registry_lists_every_claim():
    ids = all_theorem_ids()
    assert "thm1" in ids and "thm20" in ids and "lem-h23" in ids
    assert len(ids) == 16


def test_unknown_id():
    with pytest.raises(KeyError):
        verify_theorem("thm99")


def test_order_too_small():
    with pytest.raises(ValueError):
        verify_theorem("thm8", n_max=3)
    with pytest.raises(ValueError, match="ENUM_MAX"):
        verify_theorem("thm1", n_max=ENUM_MAX + 1)


@pytest.mark.parametrize("theorem_id", sorted(verify_mod.THEOREMS))
def test_claims_pass_at_order_five(theorem_id):
    spec = verify_mod.THEOREMS[theorem_id]
    report = verify_theorem(theorem_id, n_max=max(5, spec.min_order))
    assert report.passed, report.counterexamples[:3]
    assert report.graphs_checked > 0


def test_report_json_shape():
    report = verify_theorem("thm20", n_max=5)
    payload = report.to_json()
    assert payload["schema_version"] == 1
    assert payload["theorem_id"] == "thm20"
    assert payload["passed"] is True
    assert "lscc_histogram" in payload["extras"]
    assert isinstance(payload["elapsed"], float)


def test_reports_are_deterministic_modulo_elapsed():
    a = verify_theorem("thm9", n_max=5).to_json()
    b = verify_theorem("thm9", n_max=5).to_json()
    a.pop("elapsed")
    b.pop("elapsed")
    assert a == b


# Each claim's report over the classes of orders 1..7, elapsed aside:
# graphs checked, order range and extras.
_ORDER_SEVEN_REPORTS = {
    "thm1": (209, [1, 7], None),
    "thm2": (52, [3, 7], None),
    "thm4": (403, [2, 7], None),
    "thm6": (533, [4, 7], {"seeded_generations": 500}),
    "obs7": (8, [3, 10], None),
    "thm8": (336, [4, 7], None),
    "thm9": (78, [3, 7], None),
    "thm13": (673, [4, 7], {"seeded_generations": 500}),
    "thm14": (7, [1, 7], None),
    "thm15": (6, [2, 7], None),
    "thm16": (33, [4, 7], None),
    "thm17": (19, [3, 7], None),
    "thm20": (173, [4, 7], {"lscc_histogram": {"0": 1, "1": 137, "2": 9, "3": 7, "inf": 19}}),
    "lem18": (173, [4, 7], None),
    "lem19": (173, [4, 7], None),
    "lem-h23": (173, [4, 7], None),
}


def _reports_without_elapsed(reports) -> dict:
    got = {}
    for report in reports:
        payload = report.to_json()
        payload.pop("elapsed")
        got[report.theorem_id] = payload
    return got


def _passing_reports(table: dict) -> dict:
    """The passing reports a table of (graphs checked, order range, extras)
    per claim stands for, elapsed aside."""
    want = {}
    for t, (checked, order_range, extras) in table.items():
        want[t] = {
            "schema_version": 1,
            "theorem_id": t,
            "order_range": order_range,
            "graphs_checked": checked,
            "passed": True,
            "counterexamples": [],
        }
        if verify_mod.THEOREMS[t].notes:
            want[t]["notes"] = list(verify_mod.THEOREMS[t].notes)
        if extras:
            want[t]["extras"] = extras
    return want


def test_enumerated_reports_at_order_seven_are_pinned():
    got = _reports_without_elapsed(verify_claims(all_theorem_ids(), 7))
    want = _passing_reports(_ORDER_SEVEN_REPORTS)
    assert list(got) == list(want)
    assert got == want
    assert list(got["thm20"]["extras"]["lscc_histogram"]) == ["0", "1", "2", "3", "inf"]


# Each claim's report over supplied graphs, the classes of orders 1..6 under
# a relabeling: no seeded generations, each order range from the graphs the
# claim checked, and obs7 still on its own cycles.
_SUPPLIED_ORDER_SIX_REPORTS = {
    "thm1": (53, [1, 6], None),
    "thm2": (18, [3, 6], None),
    "thm4": (59, [4, 6], None),
    "thm6": (14, [4, 6], None),
    "obs7": (8, [3, 10], None),
    "thm8": (36, [4, 6], None),
    "thm9": (18, [3, 6], None),
    "thm13": (34, [4, 6], None),
    "thm14": (6, [1, 6], None),
    "thm15": (5, [2, 6], None),
    "thm16": (14, [4, 6], None),
    "thm17": (10, [3, 6], None),
    "thm20": (34, [4, 6], {"lscc_histogram": {"0": 1, "1": 19, "2": 5, "3": 3, "inf": 6}}),
    "lem18": (34, [4, 6], None),
    "lem19": (34, [4, 6], None),
    "lem-h23": (34, [4, 6], None),
}


def test_supplied_graph_reports_at_order_six_are_pinned():
    graphs = _relabeled_classes(6, 618)
    got = _reports_without_elapsed(verify_claims(all_theorem_ids(), graphs=graphs))
    want = _passing_reports(_SUPPLIED_ORDER_SIX_REPORTS)
    assert list(got) == list(want)
    assert got == want


def test_the_obs7_report_at_order_twelve_is_pinned():
    # the cycles run to the requested order once it passes 10
    got = _reports_without_elapsed(verify_claims(["obs7"], 12))
    assert got == _passing_reports({"obs7": (10, [3, 12], None)})


def _flipped(facts: tuple) -> tuple:
    """A scan's fields, its blocking vertex last, with the verdict flipped."""
    return *facts[:-1], (0 if facts[-1] is None else None)


def _lie_about_sp(monkeypatch) -> None:
    """Make both sources of facts lie about the singleton-partition
    verdict: each lane of a chunk's ``singleton_scans`` and each lane of a
    graph on its own (``_lane``)."""
    real_lane, real_scans = verify_mod._lane, verify_mod.singleton_scans
    monkeypatch.setattr(verify_mod, "_lane", lambda g: _flipped(real_lane(g)))
    monkeypatch.setattr(
        verify_mod,
        "singleton_scans",
        lambda n, rows_list: list(map(_flipped, real_scans(n, rows_list))),
    )


def test_counterexamples_reproduce(monkeypatch):
    # force a failure by lying about singleton partitions, then re-run the
    # genuine check on the reported graph6 record
    _lie_about_sp(monkeypatch)
    # thm1 reads pool graphs, and obs7 its own cycles, graph by graph
    report, cycles = verify_claims(["thm1", "obs7"], 4)
    monkeypatch.undo()
    assert not report.passed
    # the honest verdicts all pass, so under the lie every graph checked fails
    assert len(report.counterexamples) == report.graphs_checked == 8
    assert len(cycles.counterexamples) == cycles.graphs_checked == 8
    for cex in report.counterexamples:
        g = parse_graph6(cex["graph6"])
        # the honest check passes
        assert verify_mod._check_thm1(g, verify_mod._Facts(g, verify_mod._lane(g))) is None
    assert report.to_json()["counterexamples"] == report.counterexamples


def test_record_fed_counterexamples_carry_each_records_own_graph6(tmp_path, monkeypatch):
    # a failing check on records decoded in the pass: the chunk encodes a
    # failing graph again, so each counterexample is that record's graph6
    lines = [emit_graph6(g) for g in _relabeled_classes(6, 615)]
    path = tmp_path / "order6.g6"
    path.write_text("\n".join(lines) + "\n")
    failing = verify_mod.THEOREMS["thm8"]._replace(check=lambda g, f: "forced")
    monkeypatch.setitem(verify_mod.THEOREMS, "thm8", failing)
    (report,) = verify_claims(["thm8"], graphs=Graph6Lines.read(str(path)))
    stats = [degree_stats(parse_graph6(line)) for line in lines]
    expected = [
        line for line, s in zip(lines, stats) if s.min_degree == 2 and s.full_count == 0
    ]
    assert expected
    assert report.counterexamples == [{"graph6": line, "detail": "forced"} for line in expected]
    assert report.order_range == (4, 6)


def _odd_edge_count(g, f):
    return "odd edge count" if g.edge_count() % 2 else None


@pytest.mark.parametrize("source", ["enumerated", "file"])
def test_counterexamples_come_back_in_pool_order_at_every_job_count(
    tmp_path, monkeypatch, source
):
    # thm8's check fails a fixed subset of its graphs; the chunks' tallies
    # carry those failures back, and the run keeps them in pool order
    monkeypatch.setitem(
        verify_mod.THEOREMS, "thm8", verify_mod.THEOREMS["thm8"]._replace(check=_odd_edge_count)
    )
    if source == "file":
        pool_graphs = _relabeled_classes(6, 617)
        path = tmp_path / "order6.g6"
        path.write_text("".join(emit_graph6(g) + "\n" for g in pool_graphs))
        pool = Graph6Lines.read(str(path))
    else:
        pool_graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
        pool = None
    expected = [
        {"graph6": emit_graph6(g), "detail": "odd edge count"}
        for g, s in zip(pool_graphs, map(degree_stats, pool_graphs))
        if g.n >= 4 and s.min_degree == 2 and not s.full_count and g.edge_count() % 2
    ]
    reports = [
        _without_elapsed(report)
        for jobs in (1, 2, 3)
        for report in verify_claims(["thm8", "thm20"], 6, jobs, pool)
    ]
    assert reports[0]["counterexamples"] == expected
    assert 0 < len(expected) < reports[0]["graphs_checked"]
    assert reports[2:4] == reports[4:6] == reports[:2]
    assert reports[1]["passed"]
    for cex in expected:
        assert _odd_edge_count(parse_graph6(cex["graph6"]), None) == cex["detail"]


@pytest.mark.parametrize("size", [10, 1000])
def test_a_verify_chunk_returns_one_tally_per_claim(size):
    # whatever a chunk holds, the parent gets back one tally per claim of
    # the run: no per-graph result leaves the chunk
    ids = all_theorem_ids()
    claims = tuple((k, verify_mod.THEOREMS[t]) for k, t in enumerate(ids) if t != "obs7")
    pool = class_pool(1, 7, 2)
    chunk = CodePool(pool.orders, pool.cap, 0, size)
    (tallies,) = verify_mod._run_chunk(claims, {}, len(ids), chunk)
    assert len(tallies) == len(ids)
    assert all(isinstance(t, verify_mod._Tally) for t in tallies)
    assert tallies[ids.index("thm1")].count > 0
    pickled = len(pickle.dumps(tallies, pickle.HIGHEST_PROTOCOL))
    empty = len(pickle.dumps([verify_mod._Tally() for _ in ids], pickle.HIGHEST_PROTOCOL))
    assert pickled < empty + 400, pickled


def test_a_pool_no_claim_reads_is_decoded_but_not_checked(monkeypatch):
    # obs7 checks cycles of its own: the supplied items are decoded, so that
    # a malformed one raises, but facts are computed only for the cycles;
    # every record is decoded through graphs._graph_from_body
    decoded, faced = [], []
    real = graphs_mod._graph_from_body
    monkeypatch.setattr(
        graphs_mod, "_graph_from_body", lambda *args: decoded.append(real(*args)) or decoded[-1]
    )
    real_facts = verify_mod._Facts
    monkeypatch.setattr(
        verify_mod, "_Facts", lambda g, lane: faced.append(g) or real_facts(g, lane)
    )
    graphs = _relabeled_classes(5, 616)
    (report,) = verify_claims(["obs7"], graphs=graphs)
    assert report.passed
    assert decoded == graphs
    assert faced == [cycle(n) for n in range(3, 11)]
    assert not any(g is h for g in faced for h in decoded)


def test_verify_with_supplied_graphs():
    graphs = [cycle(4), cycle(5), complete(4), union(complete(1), complete(4))]
    report = verify_theorem("thm8", graphs=graphs)
    assert report.passed
    assert report.graphs_checked == 2  # only the two cycles qualify


def test_sweep_order_five():
    from coalition_kit import are_isomorphic

    records = list(sweep_chains(list(enumerate_graphs(5))))
    assert len(records) == 34
    pentagon = next(
        rec for rec in records if are_isomorphic(parse_graph6(rec["graph6"]), cycle(5))
    )
    assert pentagon["lscc"] == {"kind": "Finite", "value": 0}
    assert pentagon["template"] == "LemH23(d)"
    assert all(rec["schema_version"] == 1 for rec in records)
    assert not any(rec.get("status") == "unclassified" for rec in records)


# The template labels the chains of orders 1-8 reach, with their counts: 21
# labels, 10 of them in the branch of minimum degree 2 and no full vertex.
_LABELS_THROUGH_ORDER_EIGHT = {
    "Thm14(a)": 1, "Thm14(b)": 1, "Thm14(c)": 5, "Thm14(d)": 1,
    "Thm15(a)": 1, "Thm15(b)": 5, "Thm15(c)": 1,
    "Thm16(a)": 66, "Thm16(b)": 2, "Thm16(c)": 18, "Thm17": 39,
}
_DEGREE_TWO_LABELS_THROUGH_ORDER_EIGHT = {
    "H2-nonSP": 829, "Lem18(a)": 1, "Lem18(b)": 1, "Lem19(e)": 1, "Lem19(i)": 6,
    "Lem19(j)": 3, "LemH23(d)": 1, "LemH23(v)": 41, "LemH23(w*)": 12, "LemH23(x*)": 3,
}


def test_chains_of_orders_one_to_eight_reach_the_pinned_labels():
    records = sweep_chains(list(class_pool(1, 8).codes()))
    labels, degree_two = Counter(), Counter()
    for rec in records:
        assert rec["status"] in {"classified", "not-sp", "out-of-characterized-range"}
        if rec["status"] == "classified":
            branch = rec["min_degree"] == 2 and rec["full_vertices"] == 0
            (degree_two if branch else labels)[rec["template"]] += 1
    assert labels == _LABELS_THROUGH_ORDER_EIGHT
    assert degree_two == _DEGREE_TWO_LABELS_THROUGH_ORDER_EIGHT
    assert len(labels) + len(degree_two) == 21


def test_sweep_single_complete_graph():
    rec = chain_record(parse_graph6("C~"))
    assert rec["lscc"] == {"kind": "Finite", "value": 1}
    assert rec["chain"] == ["C~", "C?"]
    assert rec["status"] == "out-of-characterized-range"
    assert rec["template"] is None


def test_sweep_marks_non_sp():
    rec = chain_record(cycle(7))
    assert rec["status"] == "not-sp"
    assert rec["blocking_vertex"] == 0
    assert rec["lscc"]["start_not_sp"] is True


def test_a_capped_chain_gets_a_step_cap_record_without_a_template(monkeypatch):
    # no sweep chain reaches the cap, so cap the two-cycle of the path P(3),
    # "Bg", at one arrow
    real_sc_chain = verify_mod.sc_chain
    monkeypatch.setattr(verify_mod, "sc_chain", lambda g, **kwargs: real_sc_chain(g, 1, **kwargs))
    rec = chain_record(parse_graph6("Bg"))
    assert len(rec["chain"]) == 2
    assert rec["outcome"] == {"type": "step-cap", "cap": 1}
    assert rec["lscc"] == {"kind": "Unknown", "cap": 1}
    assert (rec["status"], rec["template"]) == ("unclassified", None)
    assert rec["detail"]


def test_chain_record_reads_the_blocking_vertex_from_the_chain(monkeypatch):
    monkeypatch.setattr(domination, "sp_check", lambda g: pytest.fail("sp_check called"))
    rec = chain_record(parse_graph6("CB"))
    assert rec["status"] == "not-sp"
    assert rec["blocking_vertex"] == 1


def test_parallel_jobs_match_serial():
    graphs = list(enumerate_graphs(5))
    assert list(sweep_chains(graphs, jobs=2)) == list(sweep_chains(graphs, jobs=1))
    serial = verify_theorem("thm8", n_max=5, jobs=1).to_json()
    parallel = verify_theorem("thm8", n_max=5, jobs=2).to_json()
    serial.pop("elapsed")
    parallel.pop("elapsed")
    assert serial == parallel


def _numbered_pool(count: int) -> CodePool:
    """A packed pool of the first ``count`` of the 208 classes of orders
    1..6, item i being class i; it is cut, as a list was sliced, into
    ranges of one size."""
    pool = class_pool(1, 6)
    return CodePool(pool.orders, pool.cap, 0, count)


def _numbers(chunk: CodePool) -> list[int]:
    """The numbers of a chunk's items, as ``_numbered_pool`` numbers them."""
    number = {code: i for i, code in enumerate(class_pool(1, 6).codes())}
    return [number[code] for code in chunk.codes()]


def _negated_chunk(chunk: CodePool) -> list:
    return [-x for x in _numbers(chunk)]


def _without_elapsed(report) -> dict:
    payload = report.to_json()
    payload.pop("elapsed")
    return payload


def _relabeled_order_six() -> list:
    rng = random.Random(6)
    out = []
    for g in enumerate_graphs(6):
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(g.relabel(perm))
    return out


@pytest.mark.parametrize(
    "jobs, supplied",
    [(1, False), (1, True), (2, False), (2, True)],
    ids=["enumerated", "supplied-relabeled", "enumerated-jobs2", "supplied-relabeled-jobs2"],
)
def test_shared_pool_matches_per_claim_runs(jobs, supplied):
    # one pool for the whole catalog against a fresh serial run per claim
    ids = all_theorem_ids()
    graphs = _relabeled_order_six() if supplied else None
    shared = [_without_elapsed(r) for r in verify_claims(ids, 6, jobs, graphs)]
    single = [_without_elapsed(verify_theorem(t, 6, 1, graphs)) for t in ids]
    assert [r["theorem_id"] for r in shared] == ids
    assert shared == single


def test_shared_pool_reports_before_an_invalid_claim():
    reports = verify_claims(["thm1", "thm8"], n_max=3)
    assert next(reports).passed
    with pytest.raises(ValueError):
        next(reports)


@pytest.fixture
def forks(monkeypatch) -> list:
    made = []
    real = os.fork

    def counting():
        made.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting)
    return made


# a pool is the run's set of ``jobs`` forked workers
@pytest.mark.parametrize("jobs, pools", [(1, 0), (2, 1)])
def test_one_worker_pool_per_run(forks, jobs, pools):
    reports = list(verify_claims(all_theorem_ids(), 6, jobs=jobs))
    assert all(r.passed for r in reports)
    assert len(forks) == pools * jobs


@pytest.mark.parametrize("jobs, pools", [(1, 0), (2, 1)])
def test_one_worker_pool_per_sweep(forks, jobs, pools):
    records = list(sweep_chains(list(enumerate_graphs(6)), jobs=jobs))
    assert len(records) == 156
    assert len(forks) == pools * jobs


# order 5 needs two body bytes; order 3 leaves five padding bits, here one set
@pytest.mark.parametrize(
    "bad, message",
    [(b"\x05\x00", "needs 2 body bytes, got 1"), (b"\x03\xe1", "nonzero padding bits")],
    ids=["body-length", "padding-bit"],
)
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_malformed_listed_code_is_caught_in_the_parent(forks, jobs, bad, message):
    # among enough valid codes that the pool is cut into several chunks
    codes = list(class_pool(1, 6).codes())
    items = [*codes[:100], bad, *codes[100:]]
    reports = []
    with pytest.raises(ValueError, match=message):
        for report in verify_claims(all_theorem_ids(), graphs=items, jobs=jobs):
            reports.append(report)
    assert reports == []
    with pytest.raises(ValueError, match=message):
        sweep_chains(items, jobs=jobs)
    assert len(forks) == 0


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_dies_fails_the_map():
    parent = os.getpid()

    def dying(chunk: CodePool) -> list:
        if 50 in _numbers(chunk) and os.getpid() != parent:
            os._exit(3)
        return _numbers(chunk)

    with pytest.raises(RuntimeError, match=r"ended before sending its results \(exit status 3\)"):
        list(verify_mod._pmap(dying, _numbered_pool(100), 2))
    _assert_no_child_left()


def test_a_worker_error_is_raised_after_the_earlier_chunks():
    def failing(chunk: CodePool) -> list:
        if 50 in _numbers(chunk):
            raise ValueError("chunk holding 50")
        return _negated_chunk(chunk)

    items = list(range(100))
    size = -(-len(items) // (verify_mod._CHUNKS_PER_WORKER * 2))
    got = []
    with pytest.raises(ValueError, match="chunk holding 50"):
        for result in verify_mod._pmap(failing, _numbered_pool(len(items)), 2):
            got.append(result)
    assert got == [-x for x in range(50 - 50 % size)]
    _assert_no_child_left()


def test_no_worker_outlives_a_normal_run_or_a_closed_map():
    items = list(range(100))
    pool = _numbered_pool(len(items))
    assert list(verify_mod._pmap(_negated_chunk, pool, 2)) == [-x for x in items]
    _assert_no_child_left()

    def stalling(chunk: CodePool) -> list:
        if _numbers(chunk)[0]:
            time.sleep(60)  # still running when the map is closed
        return _numbers(chunk)

    results = verify_mod._pmap(stalling, pool, 2)
    start = time.perf_counter()
    assert next(results) == 0
    results.close()
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


def test_an_interrupt_reaps_every_worker():
    def stalling(chunk: CodePool) -> list:
        time.sleep(60)
        return _numbers(chunk)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            list(verify_mod._pmap(stalling, _numbered_pool(100), 2))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


@pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 100])
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_chunked_map_keeps_every_item_in_order(count, jobs):
    # the chunks cover the items exactly once, in order, whatever the split
    items = list(range(count))
    pool = _numbered_pool(count)
    assert list(verify_mod._pmap(_negated_chunk, pool, jobs)) == [-x for x in items]


def _ranges(pool, jobs: int) -> list[tuple[int, int]]:
    """The (start, stop) of each range ``_pmap`` splits ``pool`` into."""
    return list(verify_mod._pmap(lambda chunk: [(chunk.start, chunk.stop)], pool, jobs))


def test_a_large_code_pool_is_cut_into_ranges_of_at_most_the_bound():
    # ten copies of the 1,044 order-7 classes, of which the pool takes 10,000
    assert verify_mod._CHUNK_MAX == 512
    pool = CodePool(class_pool(7, 7).orders * 10, 7, 0, 10_000)
    assert len(pool) == 10_000
    ranges = _ranges(pool, 1)
    # 20 ranges, as 512 classes each need, share the classes out evenly
    assert [stop - start for start, stop in ranges] == [500] * 20
    assert [start for start, _ in ranges[1:]] == [stop for _, stop in ranges[:-1]]
    assert ranges[0][0] == 0 and ranges[-1][1] == 10_000


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_small_pool_is_cut_into_chunks_per_worker(jobs):
    # the 208 classes of orders 1..6 are far below the bound
    assert len(_ranges(class_pool(1, 6), jobs)) == verify_mod._CHUNKS_PER_WORKER * jobs


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_a_large_file_is_cut_into_ranges_of_at_most_the_bound(end):
    # 20 x 512 records, with a line end after each: a range is 512 lines
    records = [emit_graph6(g).encode() for g in enumerate_graphs(7)] * 10
    data = b"".join(record + end for record in records[: 20 * 512])
    pool = Graph6Lines("order7.g6", data, 0, len(data))
    assert len(pool) == 20 * 512
    ranges = _ranges(pool, 1)
    assert len(ranges) == 20
    chunks = [Graph6Lines("order7.g6", data, start, stop) for start, stop in ranges]
    assert [len(chunk) for chunk in chunks] == [512] * 20
    assert [text for chunk in chunks for _, text in chunk.parse()] == [
        record.decode() for record in records[: 20 * 512]
    ]


def test_a_file_of_short_then_long_lines_is_cut_into_ranges_of_at_most_the_bound():
    # 10,000 short K2 lines, then 10,000 long C32 lines: ranges are counted
    # in lines, so a range of short lines holds no more records than one of
    # long lines
    data = (emit_graph6(complete(2)) + "\n").encode() * 10_000
    data += (emit_graph6(cycle(32)) + "\n").encode() * 10_000
    pool = Graph6Lines("k2-c32.g6", data, 0, len(data))
    assert len(pool) == 20_000
    ranges = _ranges(pool, 1)
    assert ranges[0][0] == 0 and ranges[-1][1] == len(data)
    assert [start for start, _ in ranges[1:]] == [stop for _, stop in ranges[:-1]]
    sizes = [len(Graph6Lines("k2-c32.g6", data, start, stop)) for start, stop in ranges]
    assert max(sizes) <= 512 and sum(sizes) == 20_000
    assert list(verify_mod._pmap(lambda chunk: [len(chunk)], pool, 2)) == sizes


@pytest.fixture(scope="module")
def relabeled_order_seven(tmp_path_factory):
    """The classes of orders 1..7, relabeled at random, as a graph6 file."""
    path = tmp_path_factory.mktemp("pool") / "order7.g6"
    path.write_text("".join(emit_graph6(g) + "\n" for g in _relabeled_classes(7, 77)))
    return path


def _reports(path, jobs: int, capsys) -> tuple[list[dict], list[dict]]:
    """The reports without ``elapsed`` of ``verify_claims`` over every claim
    at order 7 and of ``verify --all --file path``."""
    built = [_without_elapsed(r) for r in verify_claims(all_theorem_ids(), 7, jobs)]
    args = ["verify", "--all", "--file", str(path), "--json", "--jobs", str(jobs)]
    assert cli.main(args) == 1  # thm4 fails its odd-edge graphs
    filed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for report in filed:
        report.pop("elapsed")
    return built, filed


@pytest.mark.parametrize("chunk_max", [1, 7, verify_mod._CHUNK_MAX])
@pytest.mark.parametrize("jobs", [1, 2])
def test_reports_do_not_depend_on_the_chunk_bound(
    monkeypatch, capsys, relabeled_order_seven, chunk_max, jobs
):
    # thm4 fails a fixed subset of its graphs, so that the counterexamples,
    # like the counts, orders and thm20's histogram, are compared
    monkeypatch.setitem(
        verify_mod.THEOREMS, "thm4", verify_mod.THEOREMS["thm4"]._replace(check=_odd_edge_count)
    )
    expected = _reports(relabeled_order_seven, 1, capsys)
    for reports in expected:
        thm4, thm20 = (reports[all_theorem_ids().index(t)] for t in ("thm4", "thm20"))
        assert len(thm4["counterexamples"]) > 1
        assert sum(thm20["extras"]["lscc_histogram"].values()) == thm20["graphs_checked"] > 0
    monkeypatch.setattr(verify_mod, "_CHUNK_MAX", chunk_max)
    assert _reports(relabeled_order_seven, jobs, capsys) == expected


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_records_do_not_depend_on_the_chunk_bound(monkeypatch, jobs):
    expected = list(sweep_chains(class_pool(1, 7)))
    monkeypatch.setattr(verify_mod, "_CHUNK_MAX", 1)
    assert list(sweep_chains(class_pool(1, 7), jobs)) == expected


def _per_graph_scans(graphs):
    """The chunk scan's results from the per-graph functions."""
    return [(degree_stats(g).min_degree, *domination.singleton_partners(g)) for g, _ in graphs]


def _mixed_order_file(tmp_path, max_order: int):
    """A file of the relabeled classes of orders 1..6 and seeded random
    graphs of orders 7..``max_order``, shuffled."""
    rng = random.Random(max_order)
    graphs = _relabeled_classes(6, 31)
    for n in range(7, max_order + 1):
        for density in (0.2, 0.5, 0.8, 0.2, 0.5, 0.8):
            edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < density]
            graphs.append(Graph.from_edges(n, edges))
    rng.shuffle(graphs)
    path = tmp_path / f"mixed{max_order}.g6"
    path.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
    return Graph6Lines.read(str(path))


def test_a_chunk_of_several_orders_scans_each_order_once(monkeypatch):
    # a range of the capped pool that spans orders 6 and 7
    pool = class_pool(6, 7, 2)
    chunk = CodePool(pool.orders, pool.cap, 100, 300)
    graphs = chunk.parse()
    assert {g.n for g, _ in graphs} == {6, 7}
    calls = []
    real = verify_mod.singleton_scans
    monkeypatch.setattr(
        verify_mod, "singleton_scans", lambda n, rows: calls.append((n, len(rows))) or real(n, rows)
    )
    assert verify_mod._chunk_scans(graphs) == _per_graph_scans(graphs)
    assert calls == [(6, sum(g.n == 6 for g, _ in graphs)), (7, sum(g.n == 7 for g, _ in graphs))]


@pytest.mark.parametrize("chunk_max", [1, 50, verify_mod._CHUNK_MAX])
def test_chunks_of_several_orders_give_the_per_graph_reports_and_records(
    monkeypatch, tmp_path, chunk_max
):
    # a code pool whose ranges span orders, and a file of orders 1..16 in
    # mixed order: the reports and sweep records equal those built from
    # per-graph scans
    monkeypatch.setitem(
        verify_mod.THEOREMS, "thm4", verify_mod.THEOREMS["thm4"]._replace(check=_odd_edge_count)
    )
    pools = [class_pool(5, 7, 2), _mixed_order_file(tmp_path, 16)]
    sweep_pools = [class_pool(5, 7), _mixed_order_file(tmp_path, 32)]

    def results():
        reports = [
            [_without_elapsed(r) for r in verify_claims(all_theorem_ids(), 7, 1, pool)]
            for pool in pools
        ]
        return reports, [list(sweep_chains(pool)) for pool in sweep_pools]

    monkeypatch.setattr(verify_mod, "_CHUNK_MAX", chunk_max)
    got = results()
    monkeypatch.setattr(verify_mod, "_chunk_scans", _per_graph_scans)
    assert got == results()
    reports, records = got
    assert not reports[1][all_theorem_ids().index("thm4")]["passed"]
    assert [rec["graph6"] for rec in records[1]] == [text for _, text in sweep_pools[1].parse()]
    assert {rec["status"] for rec in records[1]} >= {"order-above-chain-support", "not-sp"}


def test_a_chunk_returns_the_failures_of_interleaved_keys_in_pool_order():
    # thm4 admits SP and non-SP graphs of every order from 2, each batched
    # under its own hypothesis key; in a shuffled pool the failures of the
    # keys interleave, and the chunk still returns them in pool order
    thm4 = verify_mod.THEOREMS["thm4"]._replace(check=_odd_edge_count)
    graphs = _relabeled_classes(6, 5)
    random.Random(5).shuffle(graphs)
    keys = [verify_mod._Facts(g, verify_mod._lane(g)).key() for g in graphs]
    (tallies,) = verify_mod._run_chunk(((0, thm4),), {}, 1, verify_mod._pool(graphs))
    failing = [(g, key) for g, key in zip(graphs, keys) if thm4.admits(key) and g.edge_count() % 2]
    assert tallies[0].counterexamples == [
        {"graph6": emit_graph6(g), "detail": "odd edge count"} for g, _ in failing
    ]
    assert tallies[0].count == sum(map(thm4.admits, keys))
    # a key's failures come again after another key's
    runs = [key for k, (_, key) in enumerate(failing) if not k or key != failing[k - 1][1]]
    assert len(runs) > len(set(runs)) > 1


def test_the_capped_pool_gives_the_reports_of_the_full_pool(monkeypatch):
    # every claim reads minimum degree at most 2, so the classes the pool
    # leaves out change no report
    def report_lines():
        return [
            {k: v for k, v in r.to_json().items() if k != "elapsed"}
            for r in verify_claims(all_theorem_ids(), 8)
        ]

    capped = report_lines()
    real = verify_mod.class_pool
    monkeypatch.setattr(verify_mod, "class_pool", lambda lo, hi, max_delta: real(lo, hi))
    assert report_lines() == capped


def test_elapsed_counts_only_the_claims_own_checks(monkeypatch):
    real = verify_mod.class_pool

    def slow(*args):
        time.sleep(0.3)
        return real(*args)

    monkeypatch.setattr(verify_mod, "class_pool", slow)
    reports = list(verify_claims(all_theorem_ids(), 4))
    assert len(reports) == 16
    assert all(r.elapsed < 0.3 for r in reports), [(r.theorem_id, r.elapsed) for r in reports]


def test_elapsed_leaves_out_the_decoding_of_supplied_items(monkeypatch):
    # 0.05 s for each of the 18 classes of orders 1..4: charged to a claim,
    # it would put thm1, which checks the 8 with an isolated vertex, over 0.3 s
    real = graphs_mod._graph_from_body

    def slow_decode(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(graphs_mod, "_graph_from_body", slow_decode)
    graphs = [g for n in range(1, 5) for g in enumerate_graphs(n)]
    reports = list(verify_claims(all_theorem_ids(), graphs=graphs))
    assert len(reports) == 16
    assert all(r.elapsed < 0.3 for r in reports), [(r.theorem_id, r.elapsed) for r in reports]


def test_facts_do_not_outlive_a_run(monkeypatch):
    _lie_about_sp(monkeypatch)
    report = verify_theorem("thm1", n_max=4)
    assert len(report.counterexamples) == report.graphs_checked == 8
    monkeypatch.undo()
    assert verify_theorem("thm1", n_max=4).passed


def _reference_degree_stats(g):
    # the list-and-min form degree_stats had before it became one loop
    degs = [row.bit_count() for row in g.rows]
    full = sum(1 << v for v, d in enumerate(degs) if d == g.n - 1)
    return DegreeStats(min(degs), full)


@pytest.mark.parametrize("relabel", [False, True], ids=["enumerated", "relabeled"])
def test_facts_match_degree_stats_and_sp_check(relabel):
    # the facts built from a chunk's lanes, against the per-graph references
    rng = random.Random(1207)
    for n in range(1, 8):
        graphs = []
        for g in enumerate_graphs(n):
            if relabel:
                perm = list(range(n))
                rng.shuffle(perm)
                g = g.relabel(perm)
            graphs.append(g)
        lanes = domination.singleton_scans(n, [g.rows for g in graphs])
        for g, lane in zip(graphs, lanes):
            assert lane == verify_mod._lane(g)
            f = verify_mod._Facts(g, lane)
            assert f.stats == degree_stats(g) == _reference_degree_stats(g)
            assert f.is_sp == (f.stats.min_degree <= 2 and domination.sp_check(g).is_sp)
            chain, reference = f.chain(), sc_chain(g)
            assert chain == reference
            assert chain.blocking_vertex == reference.blocking_vertex
            if f.is_sp:
                assert f.image() == sc_graph(g)
                # the lemma checks read the image's verdict from the chain
                image_sp = domination.sp_check(sc_graph(g)).is_sp
                assert (chain.outcome == TerminatedNonSp(1)) == (not image_sp)


def _relabeled_classes(n_max, seed):
    rng = random.Random(seed)
    graphs = []
    for n in range(1, n_max + 1):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            graphs.append(g.relabel(perm))
    return graphs


@pytest.fixture
def scans(monkeypatch) -> dict:
    """Counts of partner scans, each ``singleton_partners`` call and each
    lane of a ``singleton_scans`` call counting one, and of ``sc_graph``
    calls, through every module that binds any of the names."""
    counts = {"singleton_partners": 0, "sc_graph": 0}
    for module in (coalition_kit, domination, coalition_graph, chains, verify_mod):
        for name in counts:
            real = getattr(module, name, None)
            if real is not None:

                def counted(g, name=name, real=real):
                    counts[name] += 1
                    return real(g)

                monkeypatch.setattr(module, name, counted)
        real = getattr(module, "singleton_scans", None)
        if real is not None:

            def lanes(n, rows_list, real=real):
                counts["singleton_partners"] += len(rows_list)
                return real(n, rows_list)

            monkeypatch.setattr(module, "singleton_scans", lanes)
    return counts


def test_a_pass_scans_each_start_once_and_each_chain_member_once(scans, monkeypatch):
    # every pool graph is one lane of its chunk's scan, whatever its
    # minimum degree; a chain continues from that scan and scans each
    # member it adds
    built = []
    real_sc_chain = verify_mod.sc_chain

    def recording(*args, **kwargs):
        built.append(real_sc_chain(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(verify_mod, "sc_chain", recording)
    graphs = _relabeled_classes(6, 613)
    pool_ids = [t for t in all_theorem_ids() if t != "obs7"]
    assert all(report.passed for report in verify_claims(pool_ids, graphs=graphs))
    assert any(degree_stats(g).min_degree > 2 for g in graphs)
    assert built
    assert scans["singleton_partners"] == len(graphs) + sum(len(c.sequence) - 1 for c in built)
    assert scans["sc_graph"] == 0


# a triangle joined to three independent vertices: minimum degree 3, the
# triangle's vertices full, and vertex 3 without a partner
_DEGREE_THREE_NOT_SP = "E~z_"


def test_a_sweep_scans_each_chain_member_once(scans):
    graphs = _relabeled_classes(6, 614) + [parse_graph6(_DEGREE_THREE_NOT_SP)]
    records = list(sweep_chains(graphs))
    assert scans["singleton_partners"] == sum(len(rec["chain"]) for rec in records)
    assert scans["sc_graph"] == 0


def test_a_sweep_builds_chains_only_for_sp_starts(monkeypatch):
    built = []
    real_sc_chain = verify_mod.sc_chain

    def recording(g, *args, **kwargs):
        built.append(g)
        return real_sc_chain(g, *args, **kwargs)

    monkeypatch.setattr(verify_mod, "sc_chain", recording)
    start = parse_graph6(_DEGREE_THREE_NOT_SP)
    graphs = _relabeled_classes(6, 619) + [start]
    records = list(sweep_chains(graphs))
    assert built == [g for g in graphs if domination.sp_check(g).is_sp]
    rec = records[-1]
    assert (rec["min_degree"], rec["status"], rec["chain"]) == (3, "not-sp", ["E~z_"])
    assert rec["blocking_vertex"] == domination.sp_check(start).blocking_vertex == 3
    assert rec["lscc"] == {"kind": "Finite", "value": 0, "start_not_sp": True}
    assert rec["outcome"] == {"type": "terminated", "last_index": 0}


def test_a_pass_calls_sp_check_only_for_the_obs7_cycles(monkeypatch):
    # the verdicts come from the facts' partner scans, obs7's cycles'
    # included, so a run makes no sp_check call at all
    calls = []
    real = domination.sp_check
    monkeypatch.setattr(domination, "sp_check", lambda g: calls.append(g) or real(g))
    pool_ids = [t for t in all_theorem_ids() if t != "obs7"]
    assert all(report.passed for report in verify_claims(pool_ids, 6))
    assert next(verify_claims(["obs7"], 6)).passed
    assert calls == []
    assert not hasattr(verify_mod, "sp_check")


# ---------------------------------------------------------------------------
# The claim table against the filters it replaced
# ---------------------------------------------------------------------------
# Reference copies of the hypothesis filters that the claim registry held as
# closures before it declared each hypothesis as data.


def _where(min_degree, full=None, sp=False):
    def flt(f):
        return (
            f.stats.min_degree == min_degree
            and (full is None or (f.stats.full_count > 0) == full)
            and (not sp or f.is_sp)
        )

    return flt


def _filter_thm2(f):
    return f.g.n >= 3 and f.stats.min_degree == 1 and f.stats.full_count == 1


def _filter_f1_member(f):
    return f.stats.min_degree == 1 and f.f1() is not None


_REFERENCE_FILTERS = {
    "thm1": _where(0),
    "thm2": _filter_thm2,
    "thm4": _where(1, full=False),
    "thm6": _filter_f1_member,
    "thm8": _where(2, full=False),
    "thm9": _where(2, full=True),
    "thm13": _where(2, full=False, sp=True),
    "thm14": _where(0, sp=True),
    "thm15": _where(1, full=True, sp=True),
    "thm16": _where(1, full=False, sp=True),
    "thm17": _where(2, full=True, sp=True),
    "thm20": _where(2, full=False, sp=True),
    "lem18": _where(2, full=False, sp=True),
    "lem19": _where(2, full=False, sp=True),
    "lem-h23": _where(2, full=False, sp=True),
}


@pytest.mark.parametrize("relabel", [False, True], ids=["enumerated", "relabeled"])
def test_claim_table_admits_what_the_filters_did(relabel):
    ids = [t for t in all_theorem_ids() if t != "obs7"]
    assert sorted(ids) == sorted(_REFERENCE_FILTERS)
    rng = random.Random(7)
    graphs = []
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            graphs.append(g.relabel(perm) if relabel else g)
    expected = []
    for g in graphs:
        f = verify_mod._Facts(g, verify_mod._lane(g))
        admitted = {t for t in ids if _REFERENCE_FILTERS[t](f)}
        # the least orders cut nothing the filters admit, so runs over
        # supplied graphs, which applied the filters alone, agree as well
        assert all(g.n >= verify_mod.THEOREMS[t].min_order for t in admitted)
        expected.append(admitted)
    # one claim table for the whole pool, as in a run; each graph is its
    # own chunk, so the claims that counted it are the ones it was checked by
    claims = tuple((k, verify_mod.THEOREMS[t]) for k, t in enumerate(ids))
    check = partial(verify_mod._run_chunk, claims, {}, len(ids))
    results = [check(verify_mod._pool([g]))[0] for g in graphs]
    assert [{ids[k] for k, tally in enumerate(row) if tally.count} for row in results] == expected


@pytest.fixture
def f1_calls(monkeypatch) -> list:
    calls = []
    real = verify_mod.recognize_f1

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(verify_mod, "recognize_f1", counting)
    return calls


def test_family_membership_is_recognized_only_for_claims_that_need_it(f1_calls):
    assert next(verify_claims(["thm8"], 6)).passed
    assert f1_calls == []


def test_family_membership_is_recognized_once_per_graph(f1_calls):
    # thm4 reads the witness of every graph it checks, and thm6's key needs
    # the same witness: one recognition serves both
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    thm4, thm6 = verify_claims(["thm4", "thm6"], graphs=graphs)
    assert thm4.passed and thm6.passed
    assert 0 < thm6.graphs_checked < thm4.graphs_checked == len(f1_calls)


# Reference copies of the seeded-generation spec lists as first written.


def _reference_f1_specs(count):
    combos = []
    for n in range(4, 10):
        rest = n - 3
        for q in [0] + list(range(2, rest + 1)):
            p = rest - q
            if p >= 0:
                combos.append({"P": p, "Q": q})
    specs = []
    seed = 0
    while len(specs) < count:
        for sizes in combos:
            specs.append(FamilySpec("f1", dict(sizes), seed))
            if len(specs) == count:
                return specs
        seed += 1
    return specs


def _reference_f2_specs(count):
    combos = []
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
    specs = []
    seed = 0
    while len(specs) < count:
        for family, sizes in combos:
            specs.append(FamilySpec(family, dict(sizes), seed))
            if len(specs) == count:
                return specs
        seed += 1
    return specs


def test_seeded_generations_use_the_reference_specs(monkeypatch):
    # the generations report only a count unless one fails, so a wrong spec
    # list would change no report: pin the specs themselves
    generated = []
    real = verify_mod.generate_family

    def recording(spec):
        generated.append(str(spec))
        return real(spec)

    monkeypatch.setattr(verify_mod, "generate_family", recording)
    thm6, thm13 = verify_claims(["thm6", "thm13"], 4)
    assert thm6.passed and thm13.passed
    reference = _reference_f1_specs(500) + _reference_f2_specs(500)
    assert generated == [str(spec) for spec in reference]


def test_each_distinct_seeded_generation_is_checked_once(monkeypatch):
    # a check that fails the graphs with an even edge count fails those
    # generations, after the pool's failures: each failing spec still
    # reports its own detail, though a graph generated twice is checked once
    generated, checked = [], []
    real_generate = verify_mod.generate_family

    def recording(spec):
        generated.append(real_generate(spec))
        return generated[-1]

    def failing_even(g, f):
        assert f.g is g
        checked.append(g)
        return "even edge count" if g.edge_count() % 2 == 0 else None

    monkeypatch.setattr(verify_mod, "generate_family", recording)
    monkeypatch.setitem(
        verify_mod.THEOREMS, "thm13", verify_mod.THEOREMS["thm13"]._replace(check=failing_even)
    )
    report = next(verify_claims(["thm13"], 4))
    pool = checked[: report.graphs_checked - 500]
    expected = [
        f"{spec}: even edge count"
        for spec, g in zip(_reference_f2_specs(500), generated)
        if g.edge_count() % 2 == 0
    ]
    assert 0 < len(expected) < 500
    assert pool and all(g.n == 4 for g in pool)
    assert [cex["detail"] for cex in report.counterexamples] == [
        "even edge count" for g in pool if g.edge_count() % 2 == 0
    ] + expected
    assert len(checked) - len(pool) == len(set(generated)) < len(generated) == 500


def test_seeded_generations_are_not_recognized_again(monkeypatch):
    # generate_family re-recognizes what it builds, so the claim makes no
    # second recognition of a generated graph
    recognized = []
    monkeypatch.setattr(verify_mod, "recognize_f2", recognized.append)
    thm13 = next(verify_claims(["thm13"], 4))
    assert thm13.passed and thm13.extras["seeded_generations"] == 500
    assert recognized == []


def test_seeded_thm13_members_that_are_not_sp_fail(monkeypatch):
    # the pool's thm13 graphs are SP by hypothesis, but a generated F2
    # member is checked whatever its verdict: a non-SP member is a failure,
    # as it is for thm6
    _lie_about_sp(monkeypatch)
    report = next(verify_claims(["thm13"], 4))
    assert not report.passed
    assert [cex["detail"] for cex in report.counterexamples] == [
        f"{spec}: family member is not a singleton-partition graph"
        for spec in _reference_f2_specs(500)
    ]


# Which chains each lemma check accepts: its own lemma's, and for Lemmas 19
# and H2.3 the other one's when the image is also in that lemma's subfamily
# (the value; None for the own lemma).
_LEMMA_CHAIN_LISTS = {
    1: {"Lem18": None},
    2: {"Lem19": None, "LemH23": 3},
    3: {"LemH23": None, "Lem19": 2},
}


@pytest.mark.parametrize("subfamily", [1, 2, 3])
def test_lemma_checks_accept_the_chains_their_lemmas_list(monkeypatch, subfamily):
    # the image's subfamilies are stubbed, so every combination is reached
    g = cycle(5)
    chain = chains.ChainResult((g,) * 3, TerminatedNonSp(2))
    accepted = _LEMMA_CHAIN_LISTS[subfamily]
    for mask in range(8):
        subs = {s for s in (1, 2, 3) if mask >> (s - 1) & 1}
        monkeypatch.setattr(verify_mod, "recognize_h2", lambda h, sub: sub in subs or None)
        for label in ("Lem18(a)", "Lem19(i)", "LemH23(x*)", "LemH23(d)", "H2-nonSP"):
            facts = SimpleNamespace(chain=lambda: chain, template=lambda: chains.ChainTemplate(label))
            lemma = label.partition("(")[0]
            ok = subfamily not in subs or (
                lemma in accepted and accepted[lemma] in (None, *subs)
            )
            expected = None if ok else f"classified {label}, outside the lemma's chain list"
            assert verify_mod._check_lemma_bucket(subfamily, g, facts) == expected, (subs, label)


def test_no_image_is_in_h21_and_another_subfamily():
    # why a Lemma 18 chain counts under no other lemma: an H2.1 member has
    # two adjacent full vertices, an H2.2 or H2.3 member at most one
    h21 = [g for n in range(4, 9) for g in enumerate_graphs(n) if recognize_h2(g, 1)]
    assert len(h21) == 20
    assert not [g for g in h21 if recognize_h2(g, 2) or recognize_h2(g, 3)]
