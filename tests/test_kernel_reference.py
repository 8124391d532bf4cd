"""The pure kernel and the enumeration against reference copies of their
earlier, slower forms.

``reference_refine`` and ``reference_canonical_code`` keep the refinement
that counts every vertex against every cell each round, and
``unfiltered_extend_codes`` keeps the extension that canonicalizes every
minimum-degree neighbourhood, twins or not. The current code must give the
same codes while calling the kernel less and refining against fewer cells.
The compiled kernel, the ``fastkernel`` fixture's build, is held to the
same references.
"""

from __future__ import annotations

import gc
import hashlib
from itertools import combinations
from typing import Callable, Sequence

import pytest
from hypothesis import given, settings

from conftest import graphs
from coalition_kit import canon
from coalition_kit import kernel as pure
from coalition_kit.canon import _extend_codes, canonical_form, graph_from_code
from coalition_kit.graphs import Graph
from coalition_kit.kernel import _branch_candidates, _pack
from coalition_kit.limits import CANON_MAX

# SHA-256 of b"".join(canon.class_pool(8, 8).codes()), recorded with the reference kernel
# and the unfiltered extension.
ORDER_EIGHT_SHA256 = "805bd4d264cd249a7e6353c1689f11a8fd99015b86f6311ae38f3562cc4452eb"


def reference_refine(rows: Sequence[int], cells: list[list[int]]) -> list[list[int]]:
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


def reference_canonical_code(n: int, rows: Sequence[int]) -> bytes:
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
            search(reference_refine(rows, cells[:idx] + [[v], rest] + cells[idx + 1 :]))

    search(reference_refine(rows, [list(range(n))]))
    assert best is not None
    return bytes([n]) + best


def unfiltered_extend_codes(
    parent_codes: Sequence[bytes],
    n: int,
    kernel: Callable[[int, Sequence[int]], bytes],
) -> list[bytes]:
    """Sorted canonical codes of every order-n class, from all order-(n-1)
    codes, canonicalizing every minimum-degree neighbourhood."""
    new_bit = 1 << (n - 1)
    seen: set[bytes] = set()
    for code in parent_codes:
        rows = graph_from_code(code).rows
        degrees = [r.bit_count() for r in rows]
        for k in range(min(degrees) + 2):
            forced = [v for v, d in enumerate(degrees) if d == k - 1]
            free = [v for v, d in enumerate(degrees) if d != k - 1]
            if len(forced) > k:
                continue
            for extra in combinations(free, k - len(forced)):
                nbrs = (*forced, *extra)
                cand = [*rows, sum(1 << v for v in nbrs)]
                for v in nbrs:
                    cand[v] |= new_bit
                seen.add(kernel(n, cand))
    return sorted(seen)


class CountingKernel:
    """The active backend's kernel, counting its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, n: int, rows: Sequence[int]) -> bytes:
        self.calls += 1
        return canon.canonical_code(n, rows)


@settings(max_examples=300)
@given(graphs(max_n=CANON_MAX))
def test_codes_equal_the_reference_kernel(g):
    assert pure.canonical_code(g.n, g.rows) == reference_canonical_code(g.n, g.rows)


def test_every_extension_candidate_gets_the_reference_code():
    def both(n: int, rows: Sequence[int]) -> bytes:
        code = pure.canonical_code(n, rows)
        assert code == reference_canonical_code(n, rows)
        return code

    codes = [pure.canonical_code(1, (0,))]
    for n in range(2, 8):
        codes = unfiltered_extend_codes(codes, n, both)
    assert len(codes) == 1044


@settings(max_examples=300)
@given(g=graphs(max_n=CANON_MAX))
def test_compiled_codes_equal_the_reference_kernel(fastkernel, g):
    assert fastkernel.canonical_code(g.n, g.rows) == reference_canonical_code(g.n, g.rows)


def test_order_eight_codes_keep_their_digest():
    digest = hashlib.sha256(b"".join(canon.class_pool(8, 8).codes())).hexdigest()
    assert digest == ORDER_EIGHT_SHA256


def test_pure_kernel_calls_leave_nothing_to_collect():
    # the search holds no closure over its best code, so a call's frames
    # are freed by reference counting and the cyclic collector finds nothing
    classes = list(canon.class_pool(1, 6).codes())
    workload = [(g.n, g.rows) for g in map(graph_from_code, classes)]
    gc.collect()
    gc.disable()
    try:
        codes = [pure.canonical_code(n, rows) for n, rows in workload]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert codes == classes


def test_compiled_order_eight_codes_keep_their_digest(fastkernel):
    codes = [fastkernel.canonical_code(1, (0,))]
    for n in range(2, 9):
        parents, codes = codes, _extend_codes(codes, n, fastkernel.canonical_code)[0]
        assert codes == unfiltered_extend_codes(parents, n, fastkernel.canonical_code)
    assert hashlib.sha256(b"".join(codes)).hexdigest() == ORDER_EIGHT_SHA256


@pytest.mark.parametrize("n", range(2, 8))
def test_filtered_extension_equals_the_unfiltered_reference(n):
    parents = tuple(canon.class_pool(n - 1, n - 1).codes())
    codes, _ = _extend_codes(parents, n)
    assert codes == unfiltered_extend_codes(parents, n, canon.canonical_code)


@pytest.mark.parametrize("n, calls", [(7, 1652), (8, 21150)])
def test_twin_filter_kernel_calls(n, calls):
    counting = CountingKernel()
    parents = tuple(canon.class_pool(n - 1, n - 1).codes())
    assert tuple(_extend_codes(parents, n, counting)[0]) == tuple(canon.class_pool(n, n).codes())
    assert counting.calls == calls


@pytest.mark.parametrize("n, calls", [(7, 1291), (8, 14388)])
def test_capped_extension_kernel_calls(n, calls):
    # minimum degree at most 2: no neighbourhood of 3 or more is canonicalized
    counting = CountingKernel()
    parents = tuple(canon.class_pool(n - 1, n - 1).codes())
    codes, deltas = _extend_codes(parents, n, counting, max_delta=2)
    full = zip(canon.class_pool(n, n).codes(), canon._classes(n)[1])
    assert codes == [code for code, d in full if d <= 2]
    assert max(deltas) == 2
    assert counting.calls == calls


def test_star_extension_skips_twin_leaves():
    # K(1,3): the new vertex of degree 1 goes to the centre or to one leaf,
    # not to each of the three twin leaves; the isolated one needs no kernel
    star = [canonical_form(Graph(4, (0b1110, 0b0001, 0b0001, 0b0001)))]
    filtered, unfiltered = CountingKernel(), CountingKernel()
    assert _extend_codes(star, 5, filtered)[0] == unfiltered_extend_codes(star, 5, unfiltered)
    assert (filtered.calls, unfiltered.calls) == (2, 5)
