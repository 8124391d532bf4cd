#!/usr/bin/env python3
"""Rebuild the benchmark's committed data.

    python3 claimbench/make_data.py classes    # data/classes8.g6 (needs networkx)
    python3 claimbench/make_data.py reference  # data/reference.json.gz

``classes`` builds every order-8 isomorphism class by vertex extension,
deciding isomorphism with networkx rather than with the program under test,
then checks the result against OEIS A000088. ``reference`` runs the CLI of
the tree in ``src`` on every workload over the unrelabeled classes and keeps
the label-free fields (see reference.py). Run it only where the program's
outputs are trusted: the benchmark checks every later commit against it.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import defaultdict

import reference
from graphdata import A000088, CLASSES8, decode_graph6, encode_graph6, load_classes


def color_signature(n: int, rows: list[int], rounds: int = 3) -> tuple:
    """Isomorphism invariant: colour-refinement multiset and edge count."""
    colors = [rows[v].bit_count() for v in range(n)]
    for _ in range(rounds):
        colors = [
            hash((colors[v], tuple(sorted(colors[u] for u in range(n) if rows[v] >> u & 1))))
            for v in range(n)
        ]
    return (n, sum(r.bit_count() for r in rows), tuple(sorted(colors)))


def to_networkx(n: int, rows: list[int]):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, j) for j in range(n) for i in range(j) if rows[i] >> j & 1)
    return g


def classes_of_order(n_max: int) -> list[tuple[int, list[int]]]:
    """One representative per isomorphism class of order n_max."""
    import networkx as nx

    level = [(1, [0])]
    for n in range(2, n_max + 1):
        buckets: dict[tuple, list] = defaultdict(list)
        found: list[tuple[int, list[int]]] = []
        for _, parent in level:
            # Deleting any vertex of an order-n graph leaves an order-(n-1)
            # class, so all neighbourhoods of one new vertex reach every class.
            for mask in range(1 << (n - 1)):
                rows = [r | ((mask >> v & 1) << (n - 1)) for v, r in enumerate(parent)] + [mask]
                bucket = buckets[color_signature(n, rows)]
                g = to_networkx(n, rows)
                if not any(nx.is_isomorphic(g, h) for h in bucket):
                    bucket.append(g)
                    found.append((n, rows))
        level = found
    return level


def isomorphic_pairs(graphs: list[tuple[int, list[int]]]) -> list[tuple[int, int]]:
    """Index pairs of isomorphic graphs in the list (empty when the list holds
    pairwise non-isomorphic graphs)."""
    import networkx as nx

    buckets: dict[tuple, list[int]] = defaultdict(list)
    for i, (n, rows) in enumerate(graphs):
        buckets[color_signature(n, rows)].append(i)
    bad = []
    for members in buckets.values():
        nxg = {i: to_networkx(*graphs[i]) for i in members}
        for a, i in enumerate(members):
            for j in members[a + 1:]:
                if nx.is_isomorphic(nxg[i], nxg[j]):
                    bad.append((i, j))
    return bad


def make_classes() -> None:
    start = time.perf_counter()
    lines = sorted(encode_graph6(n, rows) for n, rows in classes_of_order(8))
    if len(lines) != A000088[8]:
        sys.exit(f"built {len(lines)} order-8 classes, A000088 says {A000088[8]}")
    if isomorphic_pairs([decode_graph6(s) for s in lines]):
        sys.exit("built classes are not pairwise non-isomorphic")
    CLASSES8.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(lines)} classes to {CLASSES8} in {time.perf_counter() - start:.1f}s")


def make_reference() -> None:
    import run

    run.WORK.mkdir(exist_ok=True)
    env = run.child_env()
    classes = load_classes()
    class_file = run.WORK / "classes8.g6"
    class_file.write_text("\n".join(classes) + "\n", encoding="ascii")
    out = run.WORK / "reference-out.jsonl"
    ref: dict = {}
    for name, workload in run.WORKLOADS.items():
        argv = [sys.executable, "-m", "coalition_kit", *workload.argv(class_file)]
        with run.Launcher(env) as launcher:
            inv = launcher.run(argv, out, time.monotonic() + 600)
        if inv.exit_code != 0:
            sys.exit(f"{name}: exit code {inv.exit_code}")
        records = reference.parse_lines(out.read_text(encoding="utf-8"))
        if workload.kind == "verify":
            ref[name] = {r["theorem_id"]: reference.verify_entry(r) for r in records}
            if not all(entry["passed"] for entry in ref[name].values()):
                sys.exit(f"{name}: a claim failed; refusing to record it as the reference")
        else:
            if len(records) != len(classes):
                sys.exit(f"{name}: {len(records)} records for {len(classes)} classes")
            ref[name] = [reference.sweep_entry(r) for r in records]
        print(f"{name}: {len(ref[name])} reference entries ({inv.wall_s:.2f}s)")
    reference.save(ref)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=["classes", "reference"])
    args = parser.parse_args()
    make_classes() if args.what == "classes" else make_reference()


if __name__ == "__main__":
    main()
