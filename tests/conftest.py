"""Shared strategies, independent oracles and the compiled kernel for the
test suite.

The oracles here deliberately avoid the library's own code paths: the
isomorphism oracle searches permutations, the partition oracle enumerates
set partitions with a from-scratch validity predicate, and the canonical
oracle minimizes over all permutations.

The ``fastkernel`` fixture builds the C extension once per session into a
temporary directory and loads it from there, so both backends are tested
while ``canon`` keeps the backend it imported.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import strategies as st

from coalition_kit import canon
from coalition_kit.graphs import Graph

_KERNEL_SOURCE = Path(__file__).parent.parent / "src" / "coalition_kit" / "_fastkernel.c"

# run in a fresh interpreter: builds the extension with setuptools into
# argv[2] and prints the built file's path
_BUILD = """
import sys
from setuptools import Distribution, Extension

source, out = sys.argv[1:]
dist = Distribution({"ext_modules": [Extension("coalition_kit._fastkernel", [source])]})
cmd = dist.get_command_obj("build_ext")
cmd.build_lib, cmd.build_temp = out, out + "/temp"
dist.run_command("build_ext")
print(cmd.get_ext_fullpath("coalition_kit._fastkernel"))
"""


@pytest.fixture(scope="session")
def fastkernel(tmp_path_factory):
    """The compiled kernel module, built from the source tree, which it
    leaves untouched; skips only when no C compiler is found."""
    compiler = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler found (looked for {compiler!r})")
    out = tmp_path_factory.mktemp("fastkernel")
    package, src = _KERNEL_SOURCE.parents[:2]
    tree = {*package.iterdir(), *src.iterdir()}
    build = subprocess.run(
        [sys.executable, "-c", _BUILD, str(_KERNEL_SOURCE), str(out)],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stdout + build.stderr
    assert {*package.iterdir(), *src.iterdir()} == tree, "the build wrote into the source tree"
    spec = importlib.util.spec_from_file_location(
        "coalition_kit._fastkernel", build.stdout.splitlines()[-1]
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def enumerate_with(monkeypatch, kernel) -> None:
    """Make ``canon`` enumerate with ``kernel``'s ``canonical_code`` into a
    cache of its own, so that the session's cache is neither read nor
    filled."""
    monkeypatch.setattr(canon, "canonical_code", kernel.canonical_code)
    monkeypatch.setattr(canon, "_classes", lru_cache(maxsize=None)(canon._classes.__wrapped__))


def graph_from_mask(n: int, mask: int) -> Graph:
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (mask >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, tuple(rows))


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_mask(n, mask)


@st.composite
def graph_with_permutation(draw, min_n: int = 1, max_n: int = 8):
    g = draw(graphs(min_n, max_n))
    perm = draw(st.permutations(list(range(g.n))))
    return g, list(perm)


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Permutation-search oracle, independent of canonical labeling."""
    if g.n != h.n:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    g_edges = set(g.edges())
    h_edges = set(h.edges())
    if len(g_edges) != len(h_edges):
        return False
    for perm in permutations(range(g.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in h_edges for u, v in g_edges):
            return True
    return False


def all_set_partitions(items: list):
    """Every set partition of ``items`` as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def oracle_coalition_number(g: Graph) -> int:
    """Exhaustive maximum over all set partitions, with a from-scratch
    validity predicate built on neighbor sets."""
    closed = [set([v]) | {u for u in range(g.n) if g.has_edge(u, v)} for v in range(g.n)]
    everything = set(range(g.n))

    def dominates(block):
        covered = set()
        for v in block:
            covered |= closed[v]
        return covered == everything

    best = 0
    for blocks in all_set_partitions(list(range(g.n))):
        ok = True
        for i, block in enumerate(blocks):
            if dominates(block):
                if len(block) != 1:
                    ok = False
                    break
                continue
            if not any(
                j != i and not dominates(other) and dominates(block + other)
                for j, other in enumerate(blocks)
            ):
                ok = False
                break
        if ok:
            best = max(best, len(blocks))
    return best


def oracle_min_perm_code(g: Graph) -> tuple:
    """Canonical form by minimizing over every permutation (small n only)."""
    best = None
    for perm in permutations(range(g.n)):
        code = tuple(
            1 if g.has_edge(perm[i], perm[j]) else 0
            for i in range(g.n)
            for j in range(i + 1, g.n)
        )
        if best is None or code < best:
            best = code
    return (g.n, best)
