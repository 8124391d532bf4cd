"""Tests of the benchmark's own parts: tracer, checker, and input data.

    python3 -m pytest claimbench/tests -q
"""

import json
import signal
import subprocess
import sys
import time

import pytest

import reference
import run
from graphdata import A000088, decode_graph6, encode_graph6, load_classes, seeded_input
from layertrace import Tracer


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_of_nested_calls():
    tracer = Tracer(FakeClock(0.0, 1.0, 4.0, 5.0, 6.0, 10.0))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.self_s["inner"] == pytest.approx(3.0 + 1.0)
    assert tracer.self_s["outer"] == pytest.approx(10.0 - 4.0)
    assert tracer.edges == {(None, "outer"): 1, ("outer", "inner"): 2}


def test_self_time_of_iterator_counts_only_its_steps():
    # Steps span [0, 3] (child 1..2) and [7, 8], then exhaustion [20, 21];
    # the consumer's time between steps is not the iterator's.
    tracer = Tracer(FakeClock(0.0, 1.0, 2.0, 3.0, 7.0, 8.0, 20.0, 21.0))
    child = tracer.wrap("child", lambda: None)

    def gen():
        child()
        yield 1
        yield 2

    wrapped = tracer.wrap_iterator("gen", gen)
    assert list(wrapped()) == [1, 2]
    assert tracer.calls["gen"] == 1
    assert tracer.self_s["gen"] == pytest.approx(2.0 + 1.0 + 1.0)
    assert tracer.self_s["child"] == pytest.approx(1.0)


def test_traced_cli_run_wraps_every_binding(tmp_path):
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "layertrace.py"), "--out", str(out), "--",
         "verify", "--theorem", "thm4", "--max-order", "5", "--jobs", "1", "--json"],
        env=run.child_env(), cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
    trace = json.loads(out.read_text())
    assert trace["absent"] == []
    layers = trace["layers"]
    assert layers["verify.verify_theorem"]["calls"] == 1
    assert layers["canon.enumerate_graphs"]["calls"] == 4  # orders 2..5
    assert layers["graphs.degree_stats"]["calls"] > 0
    assert layers["families.recognize_f1"]["calls"] > 0
    assert layers["graphs.parse_graph6"]["calls"] == 0


def test_absent_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(
        "layertrace.LAYERS",
        (
            ("graphs.no_such_name", "graphs", "no_such_name", False),
            ("gone.sp_check", "no_such_module", "sp_check", False),
        ),
    )
    assert Tracer().install() == ["graphs.no_such_name", "gone.sp_check"]


def test_launcher_reports_exit_code_output_and_kills_on_timeout(tmp_path):
    out = tmp_path / "out.txt"
    with run.Launcher(run.child_env()) as launcher:
        assert launcher.calibrate() > 0
        inv = launcher.run(
            [sys.executable, "-c", "import sys; print('x'); sys.exit(3)"], out,
            time.monotonic() + 60,
        )
        assert (inv.exit_code, out.read_text()) == (3, "x\n")
        assert inv.wall_s > 0 and inv.cpu_s > 0 and inv.peak_rss_mb > 0
        start = time.monotonic()
        inv = launcher.run(
            [sys.executable, "-c", "import time; time.sleep(30)"], out, time.monotonic() + 0.5
        )
        assert inv.exit_code == -signal.SIGKILL
        assert time.monotonic() - start < 10


def _sweep_records(ref: list[dict], class_of_line: list[int]) -> list[dict]:
    records = []
    for k in class_of_line:
        entry = dict(ref[k])
        length = entry.pop("chain_length")
        records.append({**entry, "graph6": "?", "chain": ["?"] * length, "new_field": 1})
    return records


def test_checker_flags_tampered_and_missing_sweep_records():
    ref = reference.load()["file-sweep8"]
    _, class_of_line = seeded_input(load_classes(), 7)
    records = _sweep_records(ref, class_of_line)
    assert reference.failed_sweep(ref, class_of_line, records) == 0

    tampered = [dict(r) for r in records]
    tampered[5]["status"] = "unclassified"
    tampered[9]["lscc"] = {**tampered[9]["lscc"], "kind": "Unknown"}
    assert reference.failed_sweep(ref, class_of_line, tampered) == 2

    assert reference.failed_sweep(ref, class_of_line, records[:-1]) == 1
    assert reference.failed_sweep(ref, class_of_line, records[:3] + [None] + records[4:]) == 1


def test_checker_flags_tampered_missing_and_failing_claims():
    ref = reference.load()["file-verify8"]
    records = [{"theorem_id": t, "counterexamples": [], **entry} for t, entry in ref.items()]
    assert len(records) == 16
    assert reference.failed_verify(ref, records) == 0

    tampered = [dict(r) for r in records]
    tampered[0]["graphs_checked"] += 1
    tampered[1]["passed"] = False
    assert reference.failed_verify(ref, tampered) == 2
    assert reference.failed_verify(ref, records[1:]) == 1


def test_generator_is_deterministic_and_keeps_every_class():
    classes = load_classes()
    lines, class_of_line = seeded_input(classes, 3)
    assert (lines, class_of_line) == seeded_input(classes, 3)
    assert lines != seeded_input(classes, 4)[0]
    assert len(lines) == A000088[8]
    assert sorted(class_of_line) == list(range(len(classes)))
    for line, k in zip(lines, class_of_line):
        n, rows = decode_graph6(line)
        m, class_rows = decode_graph6(classes[k])
        assert encode_graph6(n, rows) == line
        assert n == m
        assert sorted(r.bit_count() for r in rows) == sorted(r.bit_count() for r in class_rows)


def test_committed_classes_are_all_order8_classes():
    pytest.importorskip("networkx")
    from make_data import isomorphic_pairs

    classes = load_classes()
    assert len(classes) == A000088[8]
    assert {decode_graph6(s)[0] for s in classes} == {8}
    assert isomorphic_pairs([decode_graph6(s) for s in classes]) == []
