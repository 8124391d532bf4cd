"""Per-layer call counts and self time, traced from outside the program.

The tracer wraps the public functions listed in LAYERS at every module of the
``coalition_kit`` package that binds them, so calls through any module's
import see the wrapper. No private name is wrapped. A listed name that the
program no longer has is reported absent.

Run as a script, it traces one CLI invocation in this process:

    PYTHONPATH=src python3 claimbench/layertrace.py --out trace.json -- \
        verify --all --max-order 7 --jobs 1 --json
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Callable, Iterator

# (metric prefix, module that defines the name, name, wrapped as an iterator).
# The canonical-code entry point is the one canon looks up, i.e. the active
# backend's.
LAYERS: tuple[tuple[str, str, str, bool], ...] = (
    ("graphs.parse_graph6", "graphs", "parse_graph6", False),
    ("graphs.degree_stats", "graphs", "degree_stats", False),
    ("graphs.emit_graph6", "graphs", "emit_graph6", False),
    ("canon.enumerate_graphs", "canon", "enumerate_graphs", True),
    ("canon.canonical_form", "canon", "canonical_form", False),
    ("canon.are_isomorphic", "canon", "are_isomorphic", False),
    ("kernel.canonical_code", "canon", "canonical_code", False),
    ("domination.sp_check", "domination", "sp_check", False),
    ("coalition_graph.sc_graph", "coalition_graph", "sc_graph", False),
    ("families.recognize_f1", "families", "recognize_f1", False),
    ("families.recognize_h1", "families", "recognize_h1", False),
    ("families.recognize_f2", "families", "recognize_f2", False),
    ("families.recognize_h2", "families", "recognize_h2", False),
    ("families.generate_family", "families", "generate_family", False),
    ("chains.sc_chain", "chains", "sc_chain", False),
    ("chains.classify_chain", "chains", "classify_chain", False),
    ("verify.verify_theorem", "verify", "verify_theorem", False),
    ("verify.chain_record", "verify", "chain_record", False),
)

PACKAGE = "coalition_kit"


class Tracer:
    """Counts calls and accumulates self time per traced name.

    Self time of a span is its duration minus the durations of the traced
    spans it directly encloses. ``edges`` counts calls by (nearest traced
    caller, callee); the caller of a top-level call is ``None``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.self_s: dict[str, float] = {}
        self.edges: Counter[tuple[str | None, str]] = Counter()
        self._stack: list[list] = []  # [name, seconds spent in traced children]

    def _enter(self, name: str) -> float:
        self.edges[(self._stack[-1][0] if self._stack else None, name)] += 1
        self._stack.append([name, 0.0])
        return self.clock()

    def _leave(self, name: str, start: float) -> None:
        span = self.clock() - start
        _, children = self._stack.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + span - children
        if self._stack:
            self._stack[-1][1] += span

    def wrap(self, name: str, fn: Callable) -> Callable:
        self.self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            start = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, start)

        return traced

    def wrap_iterator(self, name: str, fn: Callable[..., Iterator]) -> Callable:
        """Wrap a generator function: one call per generator made, and a span
        around every step of its iteration."""
        self.self_s.setdefault(name, 0.0)

        def steps(it: Iterator) -> Iterator:
            while True:
                start = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(name, start)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            return steps(fn(*args, **kwargs))

        return traced

    def install(self) -> list[str]:
        """Wrap every listed name at each package module that binds it.

        Returns the metric prefixes of listed names the package lacks.
        """
        importlib.import_module(PACKAGE)
        importlib.import_module(f"{PACKAGE}.cli")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        absent = []
        for prefix, home, name, is_iterator in LAYERS:
            original = getattr(sys.modules.get(f"{PACKAGE}.{home}"), name, None)
            if not callable(original):
                absent.append(prefix)
                continue
            wrapper = (self.wrap_iterator if is_iterator else self.wrap)(prefix, original)
            for module in modules:
                if vars(module).get(name) is original:
                    setattr(module, name, wrapper)
        return absent

    def summary(self) -> dict:
        return {
            "layers": {
                name: {"calls": self.calls[name], "self_s": self.self_s[name]}
                for name in self.self_s
            },
            "edges": [[caller, callee, n] for (caller, callee), n in sorted(
                self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
            )],
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the trace JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    absent = tracer.install()
    from coalition_kit import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"absent": absent, **tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
