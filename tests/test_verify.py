"""The claim registry, report format, and chain sweeps."""

from __future__ import annotations

import os
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
from coalition_kit import chains, coalition_graph
from coalition_kit.canon import class_codes, enumerate_graphs
from coalition_kit.chains import TerminatedNonSp, sc_chain
from coalition_kit.coalition_graph import sc_graph
from coalition_kit.families import FamilySpec, recognize_h2
from coalition_kit.graphs import (
    DegreeStats,
    complete,
    cycle,
    degree_stats,
    emit_graph6,
    graph6_records,
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


def _flipped_partner_scan():
    """A partner scan that lies about the singleton-partition verdict."""
    real = verify_mod.singleton_partners

    def flipped(g):
        full, partners, blocking = real(g)
        return full, partners, (0 if blocking is None else None)

    return flipped


def test_counterexamples_reproduce(monkeypatch):
    # force a failure by lying about singleton partitions, then re-run the
    # genuine check on the reported graph6 record
    monkeypatch.setattr(verify_mod, "singleton_partners", _flipped_partner_scan())
    report = verify_theorem("thm1", n_max=4)
    monkeypatch.undo()
    assert not report.passed
    for cex in report.counterexamples:
        g = parse_graph6(cex["graph6"])
        # the honest check passes
        assert verify_mod._check_thm1(g, verify_mod._Facts(g)) is None
    assert report.to_json()["counterexamples"] == report.counterexamples


def test_record_fed_counterexamples_carry_each_records_own_graph6(tmp_path, monkeypatch):
    # a failing check on records decoded in the pass: the parent decodes a
    # failing record again, so each counterexample is that record's graph6
    lines = [emit_graph6(g) for g in _relabeled_classes(6, 615)]
    path = tmp_path / "order6.g6"
    path.write_text("\n".join(lines) + "\n")
    failing = verify_mod.THEOREMS["thm8"]._replace(check=lambda g, f: "forced")
    monkeypatch.setitem(verify_mod.THEOREMS, "thm8", failing)
    (report,) = verify_claims(["thm8"], graphs=graph6_records(str(path)))
    stats = [degree_stats(parse_graph6(line)) for line in lines]
    expected = [
        line for line, s in zip(lines, stats) if s.min_degree == 2 and s.full_count == 0
    ]
    assert expected
    assert report.counterexamples == [{"graph6": line, "detail": "forced"} for line in expected]
    assert report.order_range == (4, 6)


def test_a_pool_no_claim_reads_is_decoded_but_not_checked(monkeypatch):
    # obs7 checks cycles of its own: the supplied items are decoded, so that
    # a malformed one raises, but no facts are computed for them
    decoded = []
    real = verify_mod._decode
    monkeypatch.setattr(verify_mod, "_decode", lambda item: decoded.append(item) or real(item))
    monkeypatch.setattr(verify_mod, "_Facts", lambda g: pytest.fail("facts computed"))
    graphs = _relabeled_classes(5, 616)
    (report,) = verify_claims(["obs7"], graphs=graphs)
    assert report.passed
    assert decoded == graphs


def test_verify_with_supplied_graphs():
    graphs = [cycle(4), cycle(5), complete(4), union(complete(1), complete(4))]
    report = verify_theorem("thm8", graphs=graphs)
    assert report.passed
    assert report.graphs_checked == 2  # only the two cycles qualify


def test_sweep_order_five():
    from coalition_kit import are_isomorphic

    records = sweep_chains(list(enumerate_graphs(5)))
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
    records = sweep_chains(class_codes(1, 8))
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


def test_chain_record_reads_the_blocking_vertex_from_the_chain(monkeypatch):
    monkeypatch.setattr(verify_mod, "sp_check", lambda g: pytest.fail("sp_check called"))
    rec = chain_record(parse_graph6("CB"))
    assert rec["status"] == "not-sp"
    assert rec["blocking_vertex"] == 1


def test_parallel_jobs_match_serial():
    graphs = list(enumerate_graphs(5))
    assert sweep_chains(graphs, jobs=2) == sweep_chains(graphs, jobs=1)
    serial = verify_theorem("thm8", n_max=5, jobs=1).to_json()
    parallel = verify_theorem("thm8", n_max=5, jobs=2).to_json()
    serial.pop("elapsed")
    parallel.pop("elapsed")
    assert serial == parallel


def _negated_chunk(chunk: list) -> list:
    return [-x for x in chunk]


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
    records = sweep_chains(list(enumerate_graphs(6)), jobs=jobs)
    assert len(records) == 156
    assert len(forks) == pools * jobs


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_dies_fails_the_map():
    parent = os.getpid()

    def dying(chunk: list) -> list:
        if 50 in chunk and os.getpid() != parent:
            os._exit(3)
        return chunk

    with pytest.raises(RuntimeError, match=r"ended before sending its results \(exit status 3\)"):
        list(verify_mod._pmap(dying, list(range(100)), 2))
    _assert_no_child_left()


def test_a_worker_error_is_raised_after_the_earlier_chunks():
    def failing(chunk: list) -> list:
        if 50 in chunk:
            raise ValueError("chunk holding 50")
        return _negated_chunk(chunk)

    items = list(range(100))
    size = -(-len(items) // (verify_mod._CHUNKS_PER_WORKER * 2))
    got = []
    with pytest.raises(ValueError, match="chunk holding 50"):
        for result in verify_mod._pmap(failing, items, 2):
            got.append(result)
    assert got == [-x for x in range(50 - 50 % size)]
    _assert_no_child_left()


def test_no_worker_outlives_a_normal_run_or_a_closed_map():
    items = list(range(100))
    assert list(verify_mod._pmap(_negated_chunk, items, 2)) == [-x for x in items]
    _assert_no_child_left()

    def stalling(chunk: list) -> list:
        if chunk[0]:
            time.sleep(60)  # still running when the map is closed
        return chunk

    results = verify_mod._pmap(stalling, items, 2)
    start = time.perf_counter()
    assert next(results) == 0
    results.close()
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


def test_an_interrupt_reaps_every_worker():
    def stalling(chunk: list) -> list:
        time.sleep(60)
        return chunk

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            list(verify_mod._pmap(stalling, list(range(100)), 2))
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
    assert list(verify_mod._pmap(_negated_chunk, items, jobs)) == [-x for x in items]


def test_the_capped_pool_gives_the_reports_of_the_full_pool(monkeypatch):
    # every claim reads minimum degree at most 2, so the classes the pool
    # leaves out change no report
    def report_lines():
        return [
            {k: v for k, v in r.to_json().items() if k != "elapsed"}
            for r in verify_claims(all_theorem_ids(), 8)
        ]

    capped = report_lines()
    real = verify_mod.class_codes
    monkeypatch.setattr(verify_mod, "class_codes", lambda lo, hi, max_delta: real(lo, hi))
    assert report_lines() == capped


def test_elapsed_counts_only_the_claims_own_checks(monkeypatch):
    real = verify_mod.class_codes

    def slow(*args):
        time.sleep(0.3)
        return real(*args)

    monkeypatch.setattr(verify_mod, "class_codes", slow)
    reports = list(verify_claims(all_theorem_ids(), 4))
    assert len(reports) == 16
    assert all(r.elapsed < 0.3 for r in reports), [(r.theorem_id, r.elapsed) for r in reports]


def test_elapsed_leaves_out_the_decoding_of_supplied_items(monkeypatch):
    # 0.05 s for each of the 18 classes of orders 1..4: charged to a claim,
    # it would put thm1, which checks the 8 with an isolated vertex, over 0.3 s
    real = verify_mod._decode

    def slow_decode(item):
        time.sleep(0.05)
        return real(item)

    monkeypatch.setattr(verify_mod, "_decode", slow_decode)
    graphs = [g for n in range(1, 5) for g in enumerate_graphs(n)]
    reports = list(verify_claims(all_theorem_ids(), graphs=graphs))
    assert len(reports) == 16
    assert all(r.elapsed < 0.3 for r in reports), [(r.theorem_id, r.elapsed) for r in reports]


def test_facts_do_not_outlive_a_run(monkeypatch):
    monkeypatch.setattr(verify_mod, "singleton_partners", _flipped_partner_scan())
    assert not verify_theorem("thm1", n_max=4).passed
    monkeypatch.undo()
    assert verify_theorem("thm1", n_max=4).passed


def _reference_degree_stats(g):
    # the list-and-min form degree_stats had before it became one loop
    degs = [row.bit_count() for row in g.rows]
    full = sum(1 << v for v, d in enumerate(degs) if d == g.n - 1)
    return DegreeStats(min(degs), full)


@pytest.mark.parametrize("relabel", [False, True], ids=["enumerated", "relabeled"])
def test_facts_match_degree_stats_and_sp_check(relabel):
    rng = random.Random(1207)
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            if relabel:
                perm = list(range(n))
                rng.shuffle(perm)
                g = g.relabel(perm)
            f = verify_mod._Facts(g)
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
    """Counts of partner scans and of ``sc_graph`` calls, through every
    module that binds either name."""
    counts = {"singleton_partners": 0, "sc_graph": 0}
    for module in (coalition_kit, domination, coalition_graph, chains, verify_mod):
        for name in counts:
            real = getattr(module, name, None)
            if real is not None:

                def counted(g, name=name, real=real):
                    counts[name] += 1
                    return real(g)

                monkeypatch.setattr(module, name, counted)
    return counts


def test_a_pass_scans_each_start_once_and_each_chain_member_once(scans, monkeypatch):
    # every graph with minimum degree <= 2 is scanned once for its facts;
    # a chain continues from that scan and scans each member it adds
    built = []
    real_sc_chain = verify_mod.sc_chain

    def recording(*args, **kwargs):
        built.append(real_sc_chain(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(verify_mod, "sc_chain", recording)
    graphs = _relabeled_classes(6, 613)
    pool_ids = [t for t in all_theorem_ids() if t != "obs7"]
    assert all(report.passed for report in verify_claims(pool_ids, graphs=graphs))
    starts = sum(1 for g in graphs if degree_stats(g).min_degree <= 2)
    assert built
    assert scans["singleton_partners"] == starts + sum(len(c.sequence) - 1 for c in built)
    assert scans["sc_graph"] == 0


def test_a_sweep_scans_each_chain_member_once(scans):
    records = sweep_chains(_relabeled_classes(6, 614))
    assert scans["singleton_partners"] == sum(len(rec["chain"]) for rec in records)
    assert scans["sc_graph"] == 0


def test_a_pass_calls_sp_check_only_for_the_obs7_cycles(monkeypatch):
    calls = []
    for module in (verify_mod, domination):
        real = module.sp_check
        monkeypatch.setattr(module, "sp_check", lambda g, real=real: calls.append(g) or real(g))
    pool_ids = [t for t in all_theorem_ids() if t != "obs7"]
    assert all(report.passed for report in verify_claims(pool_ids, 6))
    assert calls == []
    assert next(verify_claims(["obs7"], 6)).passed
    assert [g.n for g in calls] == list(range(3, 11))


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
        f = verify_mod._Facts(g)
        admitted = {t for t in ids if _REFERENCE_FILTERS[t](f)}
        # the least orders cut nothing the filters admit, so runs over
        # supplied graphs, which applied the filters alone, agree as well
        assert all(g.n >= verify_mod.THEOREMS[t].min_order for t in admitted)
        expected.append(admitted)
    # one claim table for the whole pool, as in a run
    check = partial(verify_mod._check_graph, tuple(enumerate(ids)), True, {})
    results = verify_mod._run_chunk(check, graphs)
    assert [n for n, _ in results] == [g.n for g in graphs]
    assert [{ids[k] for k, _, _ in row} for _, row in results] == expected


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
    # generations: each failing spec still reports its own detail, though a
    # graph generated twice is checked once
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
    monkeypatch.setattr(verify_mod, "_check_thm13", failing_even)
    report = next(verify_claims(["thm13"], 4))
    expected = [
        f"{spec}: even edge count"
        for spec, g in zip(_reference_f2_specs(500), generated)
        if g.edge_count() % 2 == 0
    ]
    assert 0 < len(expected) < 500
    assert [cex["detail"] for cex in report.counterexamples] == expected
    assert len(checked) == len(set(generated)) < len(generated) == 500


def test_seeded_generations_are_not_recognized_again(monkeypatch):
    # generate_family re-recognizes what it builds, so the claim makes no
    # second recognition of a generated graph
    recognized = []
    monkeypatch.setattr(verify_mod, "recognize_f2", recognized.append)
    thm13 = next(verify_claims(["thm13"], 4))
    assert thm13.passed and thm13.extras["seeded_generations"] == 500
    assert recognized == []


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
