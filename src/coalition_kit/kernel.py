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

Refinement counts a vertex's neighbours only in the fresh cells: the cells
the previous round split off, leaving out the last child of each split (the
whole vertex set at the start, the cell [v] after individualizing v). Each
round's partition splits the one before it, and two vertices of one cell
agree on every cell of that earlier partition (the input is a stable
partition with one cell split, or a single cell). They then agree on a split
cell's last child whenever they agree on its siblings, because the counts
sum to the count in the parent cell. So counting against every cell would
split the same cells, and the first count on which two vertices differ is
always a fresh one: ordering by the fresh counts alone gives the same
partitions, branching and codes, in as many rounds. A key packs the fresh
counts into one int, 4 bits each, first cell most significant, which orders
like the tuple of counts because a count is at most n - 1 <= 15.

Code layout: one order byte, then the upper-triangle bits of the relabeled
adjacency matrix in row-major order, packed most-significant-bit first.
"""

from __future__ import annotations

from typing import Sequence

from .limits import CANON_MAX

IS_COMPILED = False


def _refine(
    rows: Sequence[int], cells: list[list[int]], fresh: list[int]
) -> list[list[int]]:
    """Split cells by neighbor counts against the fresh cells until stable.

    ``fresh`` holds the masks of the cells, in partition order, that the
    vertices of each cell may still disagree on. A split cell's children
    other than the last are fresh for the next round. Subcells are ordered
    by their count signature, so the resulting ordered partition is
    invariant under relabeling.
    """
    while fresh:
        new_cells: list[list[int]] = []
        split_off: list[int] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                r = rows[v]
                key = 0
                for m in fresh:
                    key = key << 4 | (r & m).bit_count()
                groups.setdefault(key, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            children = [groups[key] for key in sorted(groups)]
            new_cells += children
            for child in children[:-1]:
                m = 0
                for v in child:
                    m |= 1 << v
                split_off.append(m)
        cells = new_cells
        fresh = split_off
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


def _search(n: int, rows: Sequence[int], cells: list[list[int]], best: bytes | None) -> bytes:
    """The least of ``best`` and the packed codes of the complete orderings
    below the stable partition ``cells``, branching over its first
    non-singleton cell. A module function that returns its best, not a
    closure that assigns it, so that a call leaves no reference cycle."""
    for idx, cell in enumerate(cells):
        if len(cell) > 1:
            break
    else:
        code = _pack(n, rows, [c[0] for c in cells])
        return code if best is None or code < best else best
    for v in _branch_candidates(rows, cells[idx]):
        rest = [u for u in cells[idx] if u != v]
        best = _search(
            n, rows, _refine(rows, cells[:idx] + [[v], rest] + cells[idx + 1 :], [1 << v]), best
        )
    return best


def canonical_code(n: int, rows: Sequence[int]) -> bytes:
    """Canonical code of the graph given as adjacency bitmask rows."""
    if not 1 <= n <= CANON_MAX:
        raise ValueError(f"canonical labeling supports order 1..CANON_MAX = {CANON_MAX}, got {n}")
    if n == 1:
        return bytes([1])
    return bytes([n]) + _search(n, rows, _refine(rows, [list(range(n))], [(1 << n) - 1]), None)
