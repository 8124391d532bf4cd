"""Smoke runs of ``benchmarks/bench_kernel.py``, which reads private names of
the package (``canon._extend_codes``, ``verify._Facts``, ``verify._run_chunk``,
``verify._chunk_scans``, ``cli._sweep_json_line``),
so that a rename breaks a test rather than the script."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from coalition_kit.chains import sc_chain
from coalition_kit.graphs import cycle, emit_graph6, path

BENCH = Path(__file__).parent.parent / "benchmarks" / "bench_kernel.py"


def run_bench(*args: str) -> list[str]:
    result = subprocess.run([sys.executable, str(BENCH), *args], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_kernel_and_enumeration_timings_run():
    lines = run_bench("--orders", "6", "--batch", "20", "--enum-order", "5")
    # one row per backend and order 2..5, then the backend's total of 34 classes
    assert any(line.split()[:3] == ["pure", "all", "34"] for line in lines)


def test_layer_timings_run_over_a_file(tmp_path):
    records = tmp_path / "three.g6"
    graphs = (cycle(5), cycle(6), path(3))
    records.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
    lines = run_bench("--layers", "--file", str(records))
    calls = {}
    for line in lines[2:]:
        layer, count, _ = line.rsplit(maxsplit=2)
        calls[layer] = int(count)
    # all three are SP, and the cycles have minimum degree 2 and no full vertex
    assert calls["parse_graph6"] == calls["chain_record"] == calls["chain"] == 3
    # the range decode, the verify chunk and the chunk facts are timed per
    # record of the file, and the facts of one graph per call
    assert calls["Graph6Lines.parse"] == calls["verify chunk"] == calls["chunk facts"] == 3
    assert calls["_Facts"] == 3
    # all three have minimum degree at most 2, so each chain is classified
    assert calls["classify_chain"] == 3
    assert calls["recognize_f2"] == calls["recognize_h2"] == 2
    # one JSON line per record, and each chain member after a start encoded once
    assert calls["json record"] == 3
    assert calls["emit_graph6"] == sum(len(sc_chain(g).sequence) - 1 for g in graphs) > 3
