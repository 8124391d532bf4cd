#!/usr/bin/env python3
"""Benchmark the compiled kernel against the pure-Python fallback, and the
per-graph layers of a verify pass.

Times canonical codes over a fixed random workload at several orders, and
the exhaustive enumeration of orders 1..N (``--enum-order``, default 7) by
``canon._extend_codes`` (the minimum-degree vertex extension) driven by each
backend's kernel, with the classes and kernel calls of each order; then the
same extensions capped at minimum degree 2, as ``verify`` builds its pool's
top order.

``--layers`` instead times, in microseconds per call, the per-graph layers
of ``verify`` and ``sweep``: the range decode the pass uses
(``Graph6Lines.parse`` over the file's bytes, or the order-7 records as
lines, in us per record), graph6 decoding (``parse_graph6`` on each
record: the text checks and the trusted rows, no row validation),
canonical-code decoding (``graph_from_code`` on each graph's code),
``Graph`` validation (the row checks ``Graph(n, rows)`` runs on a caller's
rows), ``degree_stats``,
``sp_check``, ``_Facts`` (one graph's facts from its own degree stats and
partner scan, its hypothesis key, and the degree-1 family witness of the
graphs whose key thm6 admits, as under ``verify --all``), ``chunk facts``
(the same, with the degree stats and scans of a range's graphs computed
at once by ``verify._chunk_scans``, as the verify pass and the sweep
compute them, over ranges of at most ``verify._CHUNK_MAX`` decoded
records, in us per graph), ``recognize_f2`` (on
the graphs with minimum degree 2 and no full vertex, the thm8
hypothesis), ``recognize_h2`` (on the
singleton-coalition images of the singleton-partition ones, as thm13 calls
it), ``chain`` (``_Facts(g).chain()``: the facts and the chain continued
from their partner scan, on the singleton-partition graphs with minimum
degree at most 2, the ones the chain claims read), ``classify_chain`` (on
the same graphs, with their chains and degree stats computed beforehand;
member codes are cached on a chain after the first pass) and
``chain_record`` (one sweep record), ``emit_graph6`` (on the chain members
after the start of each singleton-partition graph, the ones a sweep record
encodes) and ``json record`` (``cli._sweep_json_line`` of each graph's
sweep record, the line ``sweep --json`` prints: a fixed format for a
not-SP record, the JSON encoder for any other) and ``verify chunk``
(``verify._run_chunk`` over the graphs cut into ranges of at most
``verify._CHUNK_MAX`` records, with every claim of ``verify --all``: the
decoding, the facts and each claim's checks over the batches of its
hypothesis keys, in us per graph). The graphs are every class of order 7,
or the records of ``--file``.

Usage: python benchmarks/bench_kernel.py [--orders 8,12,16] [--batch 2000] [--enum-order 7]
       python benchmarks/bench_kernel.py --layers [--file graphs.g6]
"""

from __future__ import annotations

import argparse
import random
import time
from functools import partial

from coalition_kit import kernel as pure
from coalition_kit.canon import (
    _extend_codes,
    canonical_form,
    enumerate_graphs,
    graph_from_code,
)
from coalition_kit.chains import classify_chain
from coalition_kit.cli import _sweep_json_line
from coalition_kit.coalition_graph import sc_graph
from coalition_kit.domination import sp_check
from coalition_kit.families import recognize_f2, recognize_h2
from coalition_kit.graphs import (
    DegreeStats,
    Graph,
    Graph6Lines,
    degree_stats,
    emit_graph6,
    parse_graph6,
)
from coalition_kit.verify import (
    _CHUNK_MAX,
    THEOREMS,
    _chunk_scans,
    _Facts,
    _run_chunk,
    all_theorem_ids,
    chain_record,
)

try:
    from coalition_kit import _fastkernel as fast
except ImportError:
    fast = None


def random_rows(rng: random.Random, n: int) -> tuple[int, ...]:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def bench_canonical(batch: int, orders: list[int]) -> None:
    print(f"canonical codes, {batch} random graphs per order")
    print(f"{'order':>6} {'pure ms/graph':>14} {'compiled ms/graph':>18} {'speedup':>8}")
    for n in orders:
        rng = random.Random(99)
        workload = [random_rows(rng, n) for _ in range(batch)]
        t0 = time.perf_counter()
        pure_codes = [pure.canonical_code(n, rows) for rows in workload]
        t1 = time.perf_counter()
        if fast is None:
            print(f"{n:>6} {1e3 * (t1 - t0) / batch:>14.4f} {'-':>18} {'-':>8}")
            continue
        fast_codes = [fast.canonical_code(n, rows) for rows in workload]
        t2 = time.perf_counter()
        assert pure_codes == fast_codes, "backend mismatch"
        pure_ms = 1e3 * (t1 - t0) / batch
        fast_ms = 1e3 * (t2 - t1) / batch
        print(f"{n:>6} {pure_ms:>14.4f} {fast_ms:>18.4f} {pure_ms / fast_ms:>7.1f}x")


# the largest minimum degree any claim reads, so verify's pool caps its
# top order there
POOL_MAX_DELTA = 2


def enumerate_codes(
    canonical_code, n: int
) -> tuple[list[bytes], list[tuple[int, int, float]], list[tuple[int, int, float]]]:
    """All order-n canonical codes, extended order by order with one kernel;
    for each order 2..n the class count, kernel calls and seconds of that
    extension, and of the extension of the same parents capped at minimum
    degree POOL_MAX_DELTA."""
    calls = 0

    def counting(k: int, rows) -> bytes:
        nonlocal calls
        calls += 1
        return canonical_code(k, rows)

    def timed(parents: list[bytes], k: int, cap: int | None) -> tuple[list[bytes], tuple]:
        nonlocal calls
        calls = 0
        t0 = time.perf_counter()
        codes, _ = _extend_codes(parents, k, counting, max_delta=cap)
        return codes, (len(codes), calls, time.perf_counter() - t0)

    codes = [canonical_code(1, (0,))]
    per_order, capped = [], []
    for k in range(2, n + 1):
        capped.append(timed(codes, k, POOL_MAX_DELTA)[1])
        codes, row = timed(codes, k, None)
        per_order.append(row)
    return codes, per_order, capped


def bench_enumeration(n: int) -> None:
    kernels = [("pure", pure.canonical_code)]
    if fast is not None:
        kernels.append(("compiled", fast.canonical_code))
    header = f"{'backend':<9} {'order':>5} {'classes':>8} {'kernel calls':>13} {'seconds':>8}"
    reference = None
    capped_rows = []
    print(f"\nenumeration of all order-{n} classes (orders 1..{n})")
    print(header)
    for name, kernel in kernels:
        codes, per_order, capped = enumerate_codes(kernel, n)
        for k, (classes, calls, seconds) in enumerate(per_order, start=2):
            print(f"{name:<9} {k:>5} {classes:>8} {calls:>13} {seconds:>8.2f}")
        total = sum(seconds for _, _, seconds in per_order)
        print(f"{name:<9} {'all':>5} {len(codes):>8} {'':>13} {total:>8.2f}")
        assert reference is None or codes == reference, "backend mismatch"
        reference = codes
        capped_rows += [(name, k, *row) for k, row in enumerate(capped, start=2)]
    print(f"\neach order capped at minimum degree {POOL_MAX_DELTA} (the verify pool's top order)")
    print(header)
    for name, k, classes, calls, seconds in capped_rows:
        print(f"{name:<9} {k:>5} {classes:>8} {calls:>13} {seconds:>8.2f}")


LAYER_PASSES = 5


def _per_record_us(fn, args: list, records: int) -> float:
    """Best of LAYER_PASSES passes of ``fn`` over ``args``, in us per record
    of the ``records`` the pass handles."""
    best = float("inf")
    for _ in range(LAYER_PASSES):
        t0 = time.perf_counter()
        for arg in args:
            fn(arg)
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / max(records, 1)


def _facts_and_key(g: Graph, stats=None, scan=None) -> None:
    """The per-graph work of the verify pass before its checks."""
    f = _Facts(g, stats, scan)
    if THEOREMS["thm6"].admits(f.key()):
        f.f1()


def _chunk_facts_and_keys(graphs: list[tuple[Graph, object]]) -> None:
    """``_facts_and_key`` of each of a range's graphs, from their degree
    stats and scans computed at once."""
    for (g, _), (low, full, partners, blocking) in zip(graphs, _chunk_scans(graphs)):
        _facts_and_key(g, DegreeStats(low, full), (full, partners, blocking))


def bench_layers(path: str | None) -> None:
    if path:
        lines = Graph6Lines.read(path)
    else:
        data = "".join(emit_graph6(g) + "\n" for g in enumerate_graphs(7)).encode()
        lines = Graph6Lines("<order 7>", data, 0, len(data))
    graphs = [g for g, _ in lines.parse()]
    degree2 = [
        g for g in graphs
        if (s := degree_stats(g)).min_degree == 2 and s.full_count == 0
    ]
    images = [sc_graph(g) for g in degree2 if sp_check(g).is_sp]
    sp_low = [g for g in graphs if degree_stats(g).min_degree <= 2 and sp_check(g).is_sp]
    chained = [(g, _Facts(g).chain(), degree_stats(g)) for g in sp_low]
    # the members a sweep record encodes: those after the start of each SP start's chain
    members = [h for g in graphs if sp_check(g).is_sp for h in _Facts(g).chain().sequence[1:]]
    records = [chain_record(g) for g in graphs]
    # the claims of verify --all that read the pool, as verify_claims lists them
    claims = tuple(
        (k, THEOREMS[t]) for k, t in enumerate(all_theorem_ids())
        if THEOREMS[t].min_degree is not None
    )
    chunks = lines.cut(-(-len(lines) // _CHUNK_MAX))
    # one call of the range decode handles every record, and one call of
    # the verify chunk or the chunk facts a range of them; each other layer
    # handles one record per call
    rows = [
        ("Graph6Lines.parse", Graph6Lines.parse, [lines], len(graphs)),
        ("verify chunk", partial(_run_chunk, claims, {}, len(THEOREMS)), chunks, len(graphs)),
        ("chunk facts", _chunk_facts_and_keys, [chunk.parse() for chunk in chunks], len(graphs)),
    ]
    rows += [(name, fn, args, len(args)) for name, fn, args in [
        ("parse_graph6", parse_graph6, [emit_graph6(g) for g in graphs]),
        ("graph_from_code", graph_from_code, [canonical_form(g) for g in graphs]),
        ("Graph validation", lambda g: Graph(g.n, g.rows), graphs),
        ("degree_stats", degree_stats, graphs),
        ("sp_check", sp_check, graphs),
        ("_Facts", _facts_and_key, graphs),
        ("recognize_f2", recognize_f2, degree2),
        ("recognize_h2", recognize_h2, images),
        ("chain", lambda g: _Facts(g).chain(), sp_low),
        ("classify_chain", lambda args: classify_chain(*args), chained),
        ("chain_record", chain_record, graphs),
        ("emit_graph6", emit_graph6, members),
        ("json record", _sweep_json_line, records),
    ]]
    source = path or "every class of order 7"
    print(f"per-graph layers over {source}, best of {LAYER_PASSES} passes")
    print(f"{'layer':<18} {'calls':>7} {'us/call':>9}")
    for name, fn, args, count in rows:
        print(f"{name:<18} {count:>7} {_per_record_us(fn, args, count):>9.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", default="8,12,16")
    parser.add_argument("--batch", type=int, default=2000)
    parser.add_argument("--enum-order", type=int, default=7)
    parser.add_argument("--layers", action="store_true", help="time the verify layers instead")
    parser.add_argument("--file", help="graph6 file for --layers (default: order-7 classes)")
    args = parser.parse_args()
    if args.layers:
        bench_layers(args.file)
        return
    if fast is None:
        print("compiled kernel not available; showing pure timings only\n")
    bench_canonical(args.batch, [int(x) for x in args.orders.split(",")])
    bench_enumeration(args.enum_order)


if __name__ == "__main__":
    main()
