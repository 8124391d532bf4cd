"""Benchmark input data: the committed order-8 classes and their seeded
relabelings.

Graphs are adjacency bitmask rows, one int per vertex. The graph6 codec here
is the benchmark's own, so the inputs do not depend on the program's parser
or on its enumeration.
"""

from __future__ import annotations

import random
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
CLASSES8 = DATA_DIR / "classes8.g6"

# OEIS A000088: graphs on n unlabeled nodes, n = 0..9.
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


def encode_graph6(n: int, rows: list[int]) -> str:
    """graph6 record of a graph of order 1..62."""
    out = [n + 63]
    group = filled = 0
    for j in range(1, n):
        for i in range(j):
            group = (group << 1) | ((rows[i] >> j) & 1)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group = filled = 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return bytes(out).decode("ascii")


def decode_graph6(text: str) -> tuple[int, list[int]]:
    """Inverse of encode_graph6 (orders 1..62, no header)."""
    data = text.strip().encode("ascii")
    n = data[0] - 63
    if not 1 <= n <= 62:
        raise ValueError(f"order out of range in graph6 record {text!r}")
    rows = [0] * n
    k = 0
    body = data[1:]
    for j in range(1, n):
        for i in range(j):
            if (body[k // 6] - 63) >> (5 - k % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return n, rows


def relabel(n: int, rows: list[int], perm: list[int]) -> list[int]:
    """Rows of the graph with vertex v renamed perm[v]."""
    out = [0] * n
    for v in range(n):
        for u in range(n):
            if rows[v] >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def load_classes(path: Path = CLASSES8) -> list[str]:
    """The committed class representatives, one graph6 record each."""
    return [line for line in path.read_text(encoding="ascii").split() if line]


def seeded_input(classes: list[str], seed: int) -> tuple[list[str], list[int]]:
    """Relabel every class at random and shuffle the records.

    Returns the graph6 lines and, for each line, the index of its class in
    ``classes``. The same seed gives the same lines.
    """
    rng = random.Random(seed)
    order = list(range(len(classes)))
    rng.shuffle(order)
    lines = []
    for k in order:
        n, rows = decode_graph6(classes[k])
        perm = list(range(n))
        rng.shuffle(perm)
        lines.append(encode_graph6(n, relabel(n, rows, perm)))
    return lines, order
