#!/usr/bin/env python3
"""Benchmark the compiled kernel against the pure-Python fallback.

Times canonical codes over a fixed random workload at several orders, and
the exhaustive enumeration of orders 1..N by ``canon._extend_codes`` (the
minimum-degree vertex extension) driven by each backend's kernel.

Usage: python benchmarks/bench_kernel.py [--orders 8,12,16] [--batch 2000]
"""

from __future__ import annotations

import argparse
import random
import time

from coalition_kit import kernel as pure
from coalition_kit.canon import _extend_codes

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


def enumerate_codes(canonical_code, n: int) -> list[bytes]:
    """All order-n canonical codes, extended order by order with one kernel."""
    codes = [canonical_code(1, (0,))]
    for k in range(2, n + 1):
        codes = _extend_codes(codes, k, canonical_code)
    return codes


def bench_enumeration(n: int) -> None:
    print(f"\nenumeration of all order-{n} classes (orders 1..{n})")
    t0 = time.perf_counter()
    codes = enumerate_codes(pure.canonical_code, n)
    t1 = time.perf_counter()
    print(f"  pure:     {len(codes)} classes in {t1 - t0:.2f}s")
    if fast is not None:
        fast_codes = enumerate_codes(fast.canonical_code, n)
        t2 = time.perf_counter()
        assert fast_codes == codes, "backend mismatch"
        print(f"  compiled: {len(fast_codes)} classes in {t2 - t1:.2f}s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", default="8,12,16")
    parser.add_argument("--batch", type=int, default=2000)
    parser.add_argument("--enum-order", type=int, default=7)
    args = parser.parse_args()
    if fast is None:
        print("compiled kernel not available; showing pure timings only\n")
    bench_canonical(args.batch, [int(x) for x in args.orders.split(",")])
    bench_enumeration(args.enum_order)


if __name__ == "__main__":
    main()
