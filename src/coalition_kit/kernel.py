"""Canonical labeling kernel, pure-Python backend.

The C extension ``_fastkernel`` implements the same ``canonical_code`` step
by step, with byte-identical output. ``canon`` imports the extension when it
is built and this module otherwise, and drives whichever it imported.

Canonical codes: iterated neighborhood refinement to an ordered partition,
then branching over the first non-singleton cell (individualize, re-refine),
taking the lexicographically least packed adjacency string over all
resulting complete orderings. Interchangeable twin vertices are branched
only once, which keeps complete/empty-like graphs linear instead of
factorial.

Code layout: one order byte, then the upper-triangle bits of the relabeled
adjacency matrix in row-major order, packed most-significant-bit first.
"""

from __future__ import annotations

from typing import Sequence

from .limits import CANON_MAX

IS_COMPILED = False


def _refine(rows: Sequence[int], cells: list[list[int]]) -> list[list[int]]:
    """Split cells by neighbor counts against every cell until stable.

    Subcells are ordered by their count signature, so the resulting ordered
    partition is invariant under relabeling.
    """
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple((rows[v] & m).bit_count() for m in masks)
                groups.setdefault(key, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(groups):
                    new_cells.append(groups[key])
        cells = new_cells
        if not changed:
            return cells


def _pack(n: int, rows: Sequence[int], order: list[int]) -> bytes:
    out = bytearray((n * (n - 1) // 2 + 7) // 8)
    k = 0
    for i in range(n):
        ri = rows[order[i]]
        for j in range(i + 1, n):
            if (ri >> order[j]) & 1:
                out[k >> 3] |= 0x80 >> (k & 7)
            k += 1
    return bytes(out)


def _branch_candidates(rows: Sequence[int], cell: list[int]) -> list[int]:
    # u, v are interchangeable when swapping them is an automorphism, i.e.
    # their rows agree outside {u, v}.
    kept: list[int] = []
    for v in cell:
        for u in kept:
            m = ~((1 << u) | (1 << v))
            if rows[u] & m == rows[v] & m:
                break
        else:
            kept.append(v)
    return kept


def canonical_code(n: int, rows: Sequence[int]) -> bytes:
    """Canonical code of the graph given as adjacency bitmask rows."""
    if not 1 <= n <= CANON_MAX:
        raise ValueError(f"canonical labeling supports order 1..{CANON_MAX}, got {n}")
    if n == 1:
        return bytes([1])
    best: bytes | None = None

    def search(cells: list[list[int]]) -> None:
        nonlocal best
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            code = _pack(n, rows, [c[0] for c in cells])
            if best is None or code < best:
                best = code
            return
        for v in _branch_candidates(rows, cells[idx]):
            rest = [u for u in cells[idx] if u != v]
            search(_refine(rows, cells[:idx] + [[v], rest] + cells[idx + 1 :]))

    search(_refine(rows, [list(range(n))]))
    assert best is not None
    return bytes([n]) + best
