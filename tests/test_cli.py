"""End-to-end CLI checks, including the committed golden chain outputs."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from coalition_kit import are_isomorphic, build_named, cli, enumerate_graphs, parse_graph6
from coalition_kit.canon import class_pool
from coalition_kit.families import generate_family
from coalition_kit.graphs import Graph6Lines, emit_graph6, path
from coalition_kit.limits import CANON_MAX, ENUM_MAX
from coalition_kit.verify import sweep_chains

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "coalition_kit", *args],
        capture_output=True,
        text=True,
    )


def test_cnum_pentagon():
    result = run_cli("cnum", "--named", "C(5)")
    assert result.returncode == 0
    assert result.stdout.strip() == "5"


def test_sp_heptagon_fails_with_blocking_vertex():
    result = run_cli("sp", "--named", "C(7)")
    assert result.returncode == 1
    assert "blocking vertex 0" in result.stdout


def test_sp_json():
    result = run_cli("sp", "--named", "C(5)", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["is_sp"] is True
    assert payload["schema_version"] == 1
    assert payload["partner"]["0"] == 2  # antipodal-ish pair: {0,1} fails to dominate


@pytest.mark.parametrize(
    "expr,golden",
    [("C(4)", "chain_c4.txt"), ("C(5)", "chain_c5.txt"), ("P(3)", "chain_p3.txt")],
)
def test_chain_golden_outputs(expr, golden):
    result = run_cli("chain", "--named", expr)
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / golden).read_text()


def test_chain_json_round_trips():
    result = run_cli("chain", "--named", "P(3)", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["lscc"]["kind"] == "Infinite"
    assert payload["outcome"]["period"] == 2
    # the embedded graph6 records rebuild the same chain
    start = parse_graph6(payload["chain"][0])
    assert are_isomorphic(start, path(3))
    second = parse_graph6(payload["chain"][1])
    assert second.n == 3 and second.edge_count() == 1


def test_cg_with_partition():
    result = run_cli("cg", "--named", "C(4)", "--partition", "0,2;1;3", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    cg = parse_graph6(payload["coalition_graph6"])
    assert cg.n == 3
    result = run_cli("cg", "--named", "C(4)")
    assert result.stdout.strip() == "C~"


def test_cg_fits_the_partition_to_every_graph_before_printing(tmp_path, capsys):
    f = tmp_path / "orders.g6"
    f.write_text("Cr\nCl\n\nBw\n")
    got = _cli_run(capsys, "cg", "--file", str(f), "--partition", "0,2;1;3")
    message = "invalid partition: parts do not cover the vertex set"
    assert got == (2, "", f"error: {f}:4: {message}\n")
    f.write_text("Cr\nCl\n")
    assert _cli_run(capsys, "cg", "--file", str(f), "--partition", "0,2;1;3") == (0, "BG\nBG\n", "")


def test_iso_command():
    assert run_cli("iso", "named:C(4)", "named:Kbip(2,2)").returncode == 0
    result = run_cli("iso", "C~", "Cl")
    assert result.returncode == 1
    assert "not isomorphic" in result.stdout


def test_family_commands():
    result = run_cli("family", "generate", "--spec", "h1:P1=3,Q1=0,seed=0")
    assert result.returncode == 0
    g6 = result.stdout.strip()
    result = run_cli("family", "recognize", "--family", "h1", "--g6", g6, "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["member"] is True
    result = run_cli("family", "recognize", "--family", "f2", "--named", "C(7)")
    assert result.returncode == 1


_WITNESS_KEYS = {
    "f1": ("f1:P=1,Q=2,seed=3", {"x", "y", "w", "p_set", "q_set"}),
    "h1": ("h1:P1=1,Q1=2,seed=3", {"x1", "y1", "w1", "p1_set", "q1_set"}),
    "f2": ("f2.3:L1=1,R1=1,R2=1,W=1", {"subfamily", "x", "y", "z", "l1", "r1", "r2", "l2", "w_set"}),
    "h2": ("h2.3:L1=1,R1=1,R2=1,W=1", {"subfamily", "x", "y", "z", "l1", "r1", "r2", "w_set"}),
}


@pytest.mark.parametrize("family", sorted(_WITNESS_KEYS))
def test_family_recognize_json_lists_every_witness_field(family):
    spec, keys = _WITNESS_KEYS[family]
    g6 = emit_graph6(generate_family(spec))
    result = run_cli("family", "recognize", "--family", family, "--g6", g6, "--json")
    assert result.returncode == 0, result.stderr
    witness = json.loads(result.stdout)["witness"]
    assert set(witness) == keys
    # vertex sets are listed, roles are single vertices
    for key, value in witness.items():
        is_set = key.endswith("_set") or key in {"l1", "r1", "r2", "l2"}
        assert isinstance(value, list) == is_set, key


def test_verify_command():
    result = run_cli("verify", "--theorem", "thm1", "--max-order", "5", "--json", "--jobs", "1")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["passed"] is True and payload["theorem_id"] == "thm1"
    result = run_cli("verify", "--theorem", "thm1", "--max-order", "5", "--jobs", "1")
    assert "thm1: PASS" in result.stdout


def test_sweep_command(tmp_path):
    result = run_cli("sweep", "--max-order", "4", "--json", "--jobs", "1")
    assert result.returncode == 0
    records = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(records) == 1 + 2 + 4 + 11
    assert all(rec["schema_version"] == 1 for rec in records)

    f = tmp_path / "one.g6"
    f.write_text("C~\n")
    result = run_cli("sweep", "--file", str(f), "--json", "--jobs", "1")
    rec = json.loads(result.stdout)
    assert rec["lscc"] == {"kind": "Finite", "value": 1}
    assert rec["status"] == "out-of-characterized-range"


def test_graph_above_chain_support_shows_its_status_alone(tmp_path):
    big = "union(K(9),C(9))"
    g6 = emit_graph6(build_named(big))
    result = run_cli("chain", "--named", big)
    assert result.returncode == 0
    assert result.stdout == f"{g6}: order-above-chain-support\n"

    f = tmp_path / "mixed.g6"
    f.write_text(f"Bg\n{g6}\n")
    result = run_cli("sweep", "--file", str(f), "--jobs", "1")
    assert result.returncode == 0
    small, large = result.stdout.splitlines()
    assert small == "Bg: length Infinite | Thm15(c)"
    assert large == f"{g6}: order-above-chain-support"


def test_sweep_golden_output():
    result = run_cli("sweep", "--max-order", "5", "--json", "--jobs", "1")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "sweep_order5.jsonl").read_text()


# SHA-256 of the stdout of `sweep --max-order 7`, text and --json: how a
# record is built or encoded may change, but not one byte of the output
_ORDER_SEVEN_SWEEP_SHA256 = {
    "text": "293c4b8a18ee8dacf461f09ebcab963242a01d906969997f3f191437ddf07618",
    "json": "21ca142328c0338fd6ff00c2b34a18c446c490f34f093754a8c7c67e9dc84826",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_the_order_seven_sweep_output_is_pinned_byte_for_byte(fmt, jobs):
    flags = ("--json",) if fmt == "json" else ()
    result = run_cli("sweep", "--max-order", "7", *flags, "--jobs", jobs)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 1252
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == _ORDER_SEVEN_SWEEP_SHA256[fmt]


def _relabeled_order_six_file(tmp_path) -> Path:
    """The 156 order-6 classes, relabeled at random, with blank lines: a
    sweep over them spans several chunks at every job count."""
    rng = random.Random(6)
    lines = []
    for k, g in enumerate(enumerate_graphs(6)):
        perm = list(range(g.n))
        rng.shuffle(perm)
        lines.append(emit_graph6(g.relabel(perm)))
        if k % 50 == 0:
            lines.append("")
    f = tmp_path / "order6.g6"
    f.write_text("\n".join(lines) + "\n")
    return f


def test_a_sweep_json_line_is_its_record_as_the_encoder_prints_it(tmp_path):
    # a not-SP record is printed through a fixed format, every other one
    # through the encoder; both must give the encoder's line
    above = build_named(f"C({CANON_MAX + 1})")
    pools = {
        "order 1..7": class_pool(1, 7),
        "relabeled order 6": Graph6Lines.read(_relabeled_order_six_file(tmp_path)),
        "above CANON_MAX": [above],
    }
    statuses = {}
    for name, pool in pools.items():
        statuses[name] = Counter()
        for rec in sweep_chains(pool):
            assert cli._sweep_json_line(rec) == cli._json_line(rec) + "\n"
            statuses[name][rec["status"]] += 1
            # graph6 may hold a backslash, which JSON escapes
            if rec["status"] == "not-sp" and "\\" in rec["graph6"]:
                statuses[name]["not-sp, escaped"] += 1
    assert statuses == {
        "order 1..7": {
            "not-sp": 852,
            "not-sp, escaped": 53,
            "classified": 238,
            "out-of-characterized-range": 162,
        },
        "relabeled order 6": {"not-sp": 94, "classified": 44, "out-of-characterized-range": 18},
        "above CANON_MAX": {"order-above-chain-support": 1},
    }


@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_sweep_file_output_is_the_same_at_every_job_count(tmp_path, fmt):
    f = _relabeled_order_six_file(tmp_path)
    outputs = []
    for jobs in ("1", "2", "3"):
        result = run_cli("sweep", "--file", str(f), *fmt, "--jobs", jobs)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert len(outputs[0].splitlines()) == 156
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_verify_file_output_is_the_same_at_every_job_count(tmp_path):
    f = _relabeled_order_six_file(tmp_path)
    outputs = []
    for jobs in ("1", "2", "3"):
        result = run_cli("verify", "--all", "--file", str(f), "--json", "--jobs", jobs)
        assert result.returncode == 0, result.stderr
        reports = [json.loads(line) for line in result.stdout.splitlines()]
        for report in reports:
            report.pop("elapsed")
        outputs.append(reports)
    assert len(outputs[0]) == 16
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def _random_graph6(rng: random.Random, n: int) -> str:
    """A graph6 record of order ``n`` drawn byte by byte, padding bits clear."""
    pairs = n * (n - 1) // 2
    width = -(-pairs // 6)
    x = rng.getrandbits(pairs) << (6 * width - pairs) if pairs else 0
    body = [63 + (x >> (6 * (width - 1 - k)) & 63) for k in range(width)]
    return bytes([63 + n, *body]).decode("ascii")


def test_a_file_sweep_record_carries_its_line_as_the_graph6_of_the_parsed_graph(
    tmp_path, capsys
):
    rng = random.Random(16)
    lines = []
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            lines.append(emit_graph6(g.relabel(perm)))
    lines += [_random_graph6(rng, rng.randint(1, 32)) for _ in range(300)]
    f = tmp_path / "mixed.g6"
    f.write_text("\n".join(lines) + "\n")
    assert cli.main(["sweep", "--file", str(f), "--json", "--jobs", "1"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == len(lines) == 1252 + 300
    assert any(rec["order"] > 16 for rec in records)
    for line, rec in zip(lines, records):
        expected = emit_graph6(parse_graph6(line))
        assert rec["graph6"] == expected == line
        assert rec.get("chain", [expected])[0] == expected


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_file_output_ignores_headers_and_surrounding_spaces(tmp_path, jobs):
    plain = _relabeled_order_six_file(tmp_path)
    lines = plain.read_text().split("\n")
    for k, line in enumerate(lines):
        if line:
            header = ">>graph6<<" if k % 3 else ""
            lines[k] = " " * (k % 2) + header + line + " " * (k % 4)
    decorated = tmp_path / "decorated.g6"
    decorated.write_text("\n".join(lines))
    outputs = [
        run_cli("sweep", "--file", str(path), "--json", "--jobs", jobs)
        for path in (plain, decorated)
    ]
    assert [result.returncode for result in outputs] == [0, 0]
    assert len(outputs[0].stdout.splitlines()) == 156
    assert outputs[1].stdout == outputs[0].stdout


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "command",
    [
        ["sweep"],
        ["verify", "--all"],
        # no claim but obs7, or none at all, reads the pool: it is still read
        ["verify", "--theorem", "obs7"],
        ["verify", "--theorem", "nope"],
    ],
    ids=["sweep", "verify", "verify-obs7", "verify-unknown"],
)
def test_sweep_file_with_a_malformed_record_writes_nothing(tmp_path, command, jobs):
    f = _relabeled_order_six_file(tmp_path)
    lines = f.read_text().split("\n")
    lines[140] = "E?"  # too short: order 6 needs three body bytes
    f.write_text("\n".join(lines))
    result = run_cli(*command, "--file", str(f), "--json", "--jobs", jobs)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"error: {f}:141: record too short: 1 body bytes, expected 3\n"
    )


@pytest.mark.parametrize("command", [["sweep"], ["verify", "--all"]], ids=["sweep", "verify"])
def test_a_malformed_record_in_the_last_chunk_fails_alike_at_every_job_count(tmp_path, command):
    f = _relabeled_order_six_file(tmp_path)
    lines = f.read_text().split("\n")
    lines[-2] = "E?"  # the last record; the text ends with a newline
    f.write_text("\n".join(lines))
    results = [
        run_cli(*command, "--file", str(f), "--json", "--jobs", jobs) for jobs in ("1", "2", "3")
    ]
    assert {(r.returncode, r.stdout, r.stderr) for r in results} == {
        (2, "", f"error: {f}:{len(lines) - 1}: record too short: 1 body bytes, expected 3\n")
    }


def test_serial_runs_load_no_parallel_machinery():
    # the forked workers' modules are imported only on the parallel path
    script = """
import sys
parallel = ("concurrent.futures", "multiprocessing", "pickle")
import coalition_kit
print(sorted(m for m in parallel if m in sys.modules))
from coalition_kit import cli
code = cli.main(["verify", "--all", "--max-order", "5", "--jobs", "1", "--json"])
print(code, sorted(m for m in parallel if m in sys.modules))
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    lines = result.stdout.splitlines()
    assert result.returncode == 0, result.stderr
    assert lines[0] == "[]"
    assert len(lines) == 18 and lines[-1] == "0 []"


def test_file_input_processes_every_line(tmp_path):
    f = tmp_path / "two.g6"
    f.write_text("Cl\nBg\n")
    result = run_cli("chain", "--file", str(f))
    lines = result.stdout.splitlines()
    assert len(lines) == 2 and lines[0].startswith("Cl:") and lines[1].startswith("Bg:")
    result = run_cli("sp", "--file", str(f))
    assert result.returncode == 0  # both are singleton-partition graphs


@pytest.mark.parametrize("command", ["sweep", "verify", "sp"])
@pytest.mark.parametrize("target", ["missing.g6", "."])
def test_unreadable_file_exits_two(tmp_path, command, target):
    # a missing file and a directory: an input error, not a traceback
    jobs = [] if command == "sp" else ["--jobs", "1"]
    result = run_cli(command, "--file", str(tmp_path / target), *jobs)
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def test_usage_errors_exit_two():
    assert run_cli("sp").returncode == 2  # no input source
    assert run_cli("sp", "--named", "C(4)", "--g6", "C~").returncode == 2
    assert run_cli("sp", "--g6", "notvalid~~~").returncode == 2
    assert run_cli("cnum", "--named", "C(2)").returncode == 2
    assert run_cli("verify", "--theorem", "nope", "--jobs", "1").returncode == 2
    assert run_cli("sweep", "--jobs", "1").returncode == 2
    assert run_cli("family", "generate", "--spec", "f1:P=1,P=2,seed=1").returncode == 2
    assert run_cli("nonsense").returncode == 2


@pytest.mark.parametrize(
    "orders, flag",
    [
        (["--max-order", "0"], "--max-order"),
        (["--min-order", "6", "--max-order", "3"], "--max-order"),
        (["--min-order", "0", "--max-order", "2"], "--min-order"),
        (["--min-order", "-1", "--max-order", "2"], "--min-order"),
        # a file sweep takes every graph in the file, so order limits conflict
        (["--file", os.devnull, "--max-order", "3"], "--max-order cannot be combined with --file"),
        (["--file", os.devnull, "--min-order", "1"], "--min-order cannot be combined with --file"),
        (
            ["--file", os.devnull, "--max-order", "3", "--min-order", "9"],
            "--max-order and --min-order cannot be combined with --file",
        ),
    ],
)
def test_sweep_rejects_an_empty_or_invalid_order_range(orders, flag):
    result = run_cli("sweep", *orders, "--jobs", "1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: " + flag)


@pytest.mark.parametrize("order", ["3", "6", "12"])
@pytest.mark.parametrize("claims", [["--all"], ["--theorem", "obs7"]], ids=["all", "obs7"])
def test_verify_rejects_a_max_order_with_a_file(claims, order):
    # a file run checks every graph in the file; only obs7's cycles would move
    result = run_cli("verify", *claims, "--file", os.devnull, "--max-order", order, "--jobs", "1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: --max-order cannot be combined with --file\n"


@pytest.mark.parametrize(
    "orders, top", [(["--file", os.devnull], 10), (["--max-order", "12"], 12)], ids=["file", "12"]
)
def test_obs7_checks_cycles_up_to_ten_or_the_max_order(orders, top):
    result = run_cli("verify", "--theorem", "obs7", *orders, "--json", "--jobs", "1")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["order_range"] == [3, top]


def test_verify_rejects_all_with_a_theorem():
    result = run_cli("verify", "--all", "--theorem", "thm4", "--max-order", "4", "--jobs", "1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: --all cannot be combined with --theorem\n"


_INPUT = ["--named", "--g6", "--file"]
_OPTIONS = {
    "sp": [*_INPUT, "--json"],
    "cnum": [*_INPUT, "--json"],
    "cg": [*_INPUT, "--partition", "--json"],
    "chain": [*_INPUT, "--json"],
    "iso": ["first", "second", "--json"],
    "family": ["action", "--family", "--spec", *_INPUT, "--json"],
    "verify": ["--theorem", "--all", "--max-order", "--file", "--jobs", "--json"],
    "sweep": ["--max-order", "--min-order", "--file", "--jobs", "--json"],
}


def test_every_subcommand_keeps_its_options_in_order():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(_OPTIONS)
    for name, p in sub.choices.items():
        got = [a.option_strings[-1] if a.option_strings else a.dest for a in p._actions]
        assert got == ["--help", *_OPTIONS[name]], name


@pytest.mark.parametrize("order", ["0", "-3"])
@pytest.mark.parametrize("theorem", ["obs7", "thm1"])
def test_verify_rejects_a_max_order_below_one(theorem, order):
    # obs7 reads no pool, so no claim's least order catches it
    result = run_cli("verify", "--theorem", theorem, "--max-order", order, "--jobs", "1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: --max-order must be at least 1\n"


@pytest.mark.parametrize(
    "command", [["verify", "--all"], ["sweep"]], ids=["verify", "sweep"]
)
def test_orders_above_the_enumeration_limit_name_it(command):
    result = run_cli(*command, "--max-order", str(ENUM_MAX + 1), "--jobs", "1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "ENUM_MAX" in result.stderr


def test_a_claim_that_reads_no_pool_runs_above_the_enumeration_limit():
    # obs7 checks cycles of its own, so no class is enumerated for it
    result = run_cli(
        "verify", "--theorem", "obs7", "--max-order", str(ENUM_MAX + 1), "--jobs", "1", "--json"
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["passed"] and report["order_range"] == [3, 10]


def test_a_claim_that_reads_no_pool_runs_below_the_least_order_of_the_others():
    # obs7 checks the cycles of orders 3..10 whatever the pool's top order
    result = run_cli("verify", "--theorem", "obs7", "--max-order", "2", "--jobs", "1", "--json")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["passed"] and report["order_range"] == [3, 10]


def test_the_first_claim_above_the_top_order_stops_the_run():
    # thm1 reads order 1 up; thm2, the next claim, needs order 3
    result = run_cli("verify", "--all", "--max-order", "2", "--jobs", "1", "--json")
    assert result.returncode == 2
    assert [json.loads(line)["theorem_id"] for line in result.stdout.splitlines()] == ["thm1"]
    assert "thm2 needs order at least 3, got n_max=2" in result.stderr


@pytest.mark.parametrize("jobs", ["0", "-1", "-2"])
@pytest.mark.parametrize(
    "command",
    [["verify", "--theorem", "thm1", "--max-order", "3"], ["sweep", "--max-order", "3"]],
    ids=["verify", "sweep"],
)
def test_jobs_below_one_is_an_input_error(command, jobs):
    result = run_cli(*command, "--jobs", jobs)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: --jobs must be at least 1\n"


def test_closed_stdout_ends_quietly_with_sigpipe_code():
    # a reader that stops after one line, like `| head -1`: the writes that
    # follow fail, which is neither an input error nor a crash
    args = ["sweep", "--max-order", "7", "--json", "--jobs", "1"]
    with subprocess.Popen(
        [sys.executable, "-m", "coalition_kit", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first["order"] == 1
    assert code == 141
    assert stderr == ""


def test_closed_stdout_in_a_parallel_file_sweep_leaves_no_worker(tmp_path):
    # the lines stream out chunk by chunk while the workers still run; the
    # run's own process group holds the parent and its forked workers
    f = tmp_path / "order7.g6"
    f.write_text("".join(emit_graph6(g) + "\n" for g in enumerate_graphs(7)))
    args = ["sweep", "--file", str(f), "--json", "--jobs", "2"]
    with subprocess.Popen(
        [sys.executable, "-m", "coalition_kit", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first["order"] == 7
    assert code == 141
    assert stderr == ""
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


# ---------------------------------------------------------------------------
# How graph6 files are read: line ends, blank lines, headers and bad bytes
# ---------------------------------------------------------------------------

_LINE_ENDS = (b"\n", b"\r", b"\r\n")
# whitespace that str.strip removes; bytes.strip keeps \x1c..\x1f
_BLANKS = (b"", b"  \t", b"\x1c\x1d\x1e\x1f", b"\x0b\x0c ")
_PADS = (b"", b" ", b"\t\x1c", b"\x1f ")


def _decorated_graph6(lines: list[str]) -> bytes:
    """The records of ``lines`` in order, with every line end, blank and
    whitespace-only lines, headers and surrounding whitespace, and no final
    newline."""
    out = []
    for k, line in enumerate(lines):
        pad = _PADS[k % 4]
        header = b">>graph6<<" if k % 5 == 1 else b""
        out.append(pad + header + line.encode("ascii") + pad[::-1] + _LINE_ENDS[k % 3])
        if k % 7 == 0:
            out.append(_BLANKS[k % 4] + _LINE_ENDS[k // 7 % 3])
    return b"".join(out).rstrip(b"\r\n")


def _line_number_at(data: bytes, offset: int) -> int:
    """The number of the line that starts at byte ``offset``, counting a line
    end as \\n, \\r or \\r\\n."""
    head = data[:offset]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def _cli_run(capsys, *args: str) -> tuple[int, str, str]:
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def _order_six_lines() -> list[str]:
    rng = random.Random(21)
    lines = []
    for g in enumerate_graphs(6):
        perm = list(range(g.n))
        rng.shuffle(perm)
        lines.append(emit_graph6(g.relabel(perm)))
    return lines


# every command that reads --file, with the runs whose outputs must agree:
# one per job count for the pooled ones, one without --jobs for the others
_FILE_COMMANDS = {
    "sweep": (["sweep"], [["--jobs", jobs] for jobs in ("1", "2", "3")]),
    "verify": (["verify", "--all"], [["--jobs", jobs] for jobs in ("1", "2", "3")]),
    "sp": (["sp"], [[]]),
    "cnum": (["cnum"], [[]]),
    "cg": (["cg"], [[]]),
    "chain": (["chain"], [[]]),
    "family": (["family", "recognize", "--family", "f2"], [[]]),
}


@pytest.mark.parametrize("name", list(_FILE_COMMANDS))
def test_a_decorated_graph6_file_reads_as_its_plain_records(tmp_path, capsys, name):
    command, runs = _FILE_COMMANDS[name]
    lines = _order_six_lines()
    plain, decorated = tmp_path / "plain.g6", tmp_path / "decorated.g6"
    plain.write_text("\n".join(lines) + "\n")
    decorated.write_bytes(_decorated_graph6(lines))
    want = _cli_run(capsys, *command, "--json", "--file", str(plain), *runs[0])
    # some order-6 classes are not singleton-partition graphs, or not in f2
    assert want[0] == (1 if name in ("sp", "family") else 0) and want[2] == ""
    if name == "verify":
        want = (0, [_without_elapsed(rec) for rec in want[1].splitlines()], "")
    else:
        assert [json.loads(rec)["graph6"] for rec in want[1].splitlines()] == lines
    for run in runs:
        got = _cli_run(capsys, *command, "--json", "--file", str(decorated), *run)
        if name == "verify":
            got = (got[0], [_without_elapsed(rec) for rec in got[1].splitlines()], got[2])
        assert got == want, run


def _without_elapsed(line: str) -> dict:
    report = json.loads(line)
    report.pop("elapsed")
    return report


@pytest.mark.parametrize(
    "bad, message",
    [
        (b"E\xffx", "graph6 record contains non-ASCII bytes"),
        (b"\r\n \r\x1c\n\r \x0bE?", "record too short: 1 body bytes, expected 3"),
    ],
    ids=["non-ascii", "short-after-blank-lines"],
)
@pytest.mark.parametrize("name", list(_FILE_COMMANDS))
def test_a_bad_record_in_a_decorated_graph6_file_is_named_by_its_line(
    tmp_path, capsys, name, bad, message
):
    command, runs = _FILE_COMMANDS[name]
    lines = _order_six_lines()
    head = _decorated_graph6(lines[:120]) + b"\r\n"
    data = head + bad + b"\r" + _decorated_graph6(lines[120:]) + b"\n"
    line = _line_number_at(data, len(head) + bad.rindex(b"E"))
    f = tmp_path / "bad.g6"
    f.write_bytes(data)
    for run in runs:
        got = _cli_run(capsys, *command, "--file", str(f), "--json", *run)
        assert got == (2, "", f"error: {f}:{line}: {message}\n"), run


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_graph_above_canon_max_in_a_verify_file_is_named_by_its_line(tmp_path, capsys, jobs):
    # an order-18 graph with an isolated vertex, which thm1 admits, on line
    # 102 after a blank line: any claim that reads the pool stops before
    # its first check, also thm4, which does not admit the graph
    lines = _order_six_lines()
    big = build_named(f"union(K(1),C({CANON_MAX + 1}))")
    assert big.n == 18
    data = "\n".join(lines[:100]) + "\n\n" + emit_graph6(big) + "\n" + "\n".join(lines[100:])
    f = tmp_path / "big.g6"
    f.write_text(data + "\n")
    error = f"error: {f}:102: order 18 above CANON_MAX = {CANON_MAX}\n"
    for claims in (["--all"], ["--theorem", "thm4"]):
        got = _cli_run(capsys, "verify", *claims, "--file", str(f), "--json", "--jobs", jobs)
        assert got == (2, "", error), claims
    # obs7 reads no pool graph, so the file is decoded but no order is refused
    code, out, err = _cli_run(
        capsys, "verify", "--theorem", "obs7", "--file", str(f), "--jobs", jobs
    )
    assert (code, err) == (0, "") and out.startswith("obs7: PASS")
