"""Command-line front end.

Subcommands: sp, cnum, cg, chain, family, verify, sweep, iso. Graph input
comes from exactly one of ``--named`` (stock-graph expression), ``--g6``
(literal graph6 record), or ``--file`` (graph6 file, one graph per line).

Exit codes: 0 for success or a true verdict; 1 for a false verdict (not a
singleton-partition graph, claim failed, not isomorphic, not a family
member); 2 for usage or input errors; 141 (128 + SIGPIPE), with nothing on
stderr, when the reader of stdout closes it early. JSON output is
schema-stable and carries ``schema_version``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .canon import are_isomorphic, class_codes
from .coalition_graph import coalition_graph
from .domination import (
    Partition,
    coalition_number_exact,
    singleton_partition,
    sp_check,
)
from .families import (
    generate_family,
    parse_family_spec,
    recognize_f1,
    recognize_f2,
    recognize_h1,
    recognize_h2,
)
from .graphs import (
    Graph,
    Graph6Error,
    NamedGraphError,
    bits,
    build_named,
    emit_graph6,
    graph6_records,
    parse_graph6,
    read_graph6_file,
)
from .verify import (
    SCHEMA_VERSION,
    all_theorem_ids,
    chain_record,
    sweep_chains,
    verify_claims,
)


class CliInputError(Exception):
    pass


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--named", help="stock-graph expression, e.g. 'join(Kbar(2),K(3))'")
    p.add_argument("--g6", help="literal graph6 record")
    p.add_argument("--file", help="graph6 file, one graph per line")


def _input_graphs(args: argparse.Namespace) -> list[Graph]:
    sources = [s for s in ("named", "g6", "file") if getattr(args, s, None)]
    if len(sources) != 1:
        raise CliInputError("provide exactly one of --named, --g6, --file")
    if args.named:
        return [build_named(args.named)]
    if args.g6:
        return [parse_graph6(args.g6)]
    return list(read_graph6_file(args.file))


def _mask_list(mask: int) -> list[int]:
    return list(bits(mask))


# one encoder for every line: json.dumps with an option builds a new one per call
_json_line = json.JSONEncoder(sort_keys=True).encode


def _print_json(obj: dict) -> None:
    print(_json_line(obj))


def _parse_partition(text: str, n: int) -> Partition:
    blocks = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise CliInputError("empty part in partition")
        try:
            blocks.append([int(v) for v in chunk.split(",")])
        except ValueError as exc:
            raise CliInputError(f"bad partition part {chunk!r}") from exc
    try:
        return Partition.from_blocks(n, blocks)
    except ValueError as exc:
        raise CliInputError(f"invalid partition: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_sp(args: argparse.Namespace) -> int:
    code = 0
    for g in _input_graphs(args):
        verdict = sp_check(g)
        if args.json:
            _print_json(
                {
                    "schema_version": SCHEMA_VERSION,
                    "graph6": emit_graph6(g),
                    "is_sp": verdict.is_sp,
                    "full_vertices": _mask_list(verdict.full_vertices),
                    "partner": {str(k): v for k, v in sorted(verdict.partner.items())},
                    "blocking_vertex": verdict.blocking_vertex,
                }
            )
        elif verdict.is_sp:
            print(f"{emit_graph6(g)}: singleton-partition graph")
        else:
            print(
                f"{emit_graph6(g)}: not a singleton-partition graph "
                f"(blocking vertex {verdict.blocking_vertex})"
            )
        if not verdict.is_sp:
            code = 1
    return code


def _cmd_cnum(args: argparse.Namespace) -> int:
    for g in _input_graphs(args):
        result = coalition_number_exact(g)
        if args.json:
            _print_json(
                {
                    "schema_version": SCHEMA_VERSION,
                    "graph6": emit_graph6(g),
                    "value": result.value,
                    "witness": None
                    if result.witness is None
                    else [_mask_list(p) for p in result.witness.parts],
                }
            )
        else:
            print(result.value)
    return 0


def _cmd_cg(args: argparse.Namespace) -> int:
    for g in _input_graphs(args):
        partition = (
            _parse_partition(args.partition, g.n) if args.partition else singleton_partition(g)
        )
        image = coalition_graph(g, partition)
        if args.json:
            _print_json(
                {
                    "schema_version": SCHEMA_VERSION,
                    "graph6": emit_graph6(g),
                    "partition": [_mask_list(p) for p in partition.parts],
                    "coalition_graph6": emit_graph6(image),
                }
            )
        else:
            print(emit_graph6(image))
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    for g in _input_graphs(args):
        rec = chain_record(g)
        if args.json:
            _print_json(rec)
        else:
            print(_chain_summary(rec, arrows=True))
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    def load(spec: str) -> Graph:
        if spec.startswith("named:"):
            return build_named(spec[len("named:"):])
        if spec.startswith("g6:"):
            return parse_graph6(spec[len("g6:"):])
        return parse_graph6(spec)

    g = load(args.first)
    h = load(args.second)
    same = are_isomorphic(g, h)
    if args.json:
        _print_json(
            {
                "schema_version": SCHEMA_VERSION,
                "first": emit_graph6(g),
                "second": emit_graph6(h),
                "isomorphic": same,
            }
        )
    else:
        print("isomorphic" if same else "not isomorphic")
    return 0 if same else 1


_RECOGNIZE = {
    "f1": recognize_f1,
    "h1": recognize_h1,
    "f2": recognize_f2,
    "h2": recognize_h2,
}


def _witness_json(wit) -> dict:
    out = {}
    for key, value in wit._asdict().items():
        if key.endswith("_set") or key in {"l1", "r1", "r2", "l2", "p_set", "q_set"}:
            out[key] = _mask_list(value)
        else:
            out[key] = value
    return out


def _cmd_family(args: argparse.Namespace) -> int:
    if args.action == "generate":
        if not args.spec:
            raise CliInputError("generate needs --spec, e.g. 'f2.1:R1=2,seed=7'")
        g = generate_family(parse_family_spec(args.spec))
        if args.json:
            _print_json(
                {"schema_version": SCHEMA_VERSION, "spec": args.spec, "graph6": emit_graph6(g)}
            )
        else:
            print(emit_graph6(g))
        return 0
    # recognize
    if not args.family:
        raise CliInputError("recognize needs --family (f1, h1, f2, h2)")
    recognizer = _RECOGNIZE.get(args.family)
    if recognizer is None:
        raise CliInputError(f"unknown family {args.family!r}; expected f1, h1, f2, h2")
    code = 0
    for g in _input_graphs(args):
        wit = recognizer(g)
        if args.json:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "graph6": emit_graph6(g),
                "family": args.family,
                "member": wit is not None,
            }
            if wit is not None:
                payload["witness"] = _witness_json(wit)
            _print_json(payload)
        elif wit is None:
            print(f"{emit_graph6(g)}: not a member of {args.family}")
        else:
            print(f"{emit_graph6(g)}: member of {args.family} with {wit}")
        if wit is None:
            code = 1
    return code


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_order < 1:
        raise CliInputError("--max-order must be at least 1")
    ids = all_theorem_ids() if args.all or not args.theorem else [args.theorem]
    records = graph6_records(args.file) if args.file else None
    failed = False
    for report in verify_claims(ids, args.max_order, args.jobs, records):
        if args.json:
            _print_json(report.to_json())
        else:
            status = "PASS" if report.passed else "FAIL"
            print(
                f"{report.theorem_id}: {status} ({report.graphs_checked} graphs, "
                f"{report.elapsed:.2f}s)"
            )
            for cex in report.counterexamples:
                print(f"  counterexample {cex['graph6']}: {cex['detail']}")
        failed = failed or not report.passed
    return 1 if failed else 0


def _chain_summary(rec: dict, arrows: bool = False) -> str:
    """One text line for a chain record: the chain itself when ``arrows``
    is set, then its length and its template (or status). A record without
    a chain (order above CANON_MAX) shows its status alone."""
    if "chain" not in rec:
        return f"{rec['graph6']}: {rec['status']}"
    lscc = rec["lscc"]
    shown = lscc["kind"] if "value" not in lscc else f"{lscc['kind']}({lscc['value']})"
    chain = " -> ".join(rec["chain"]) + " | " if arrows else ""
    return f"{rec['graph6']}: {chain}length {shown} | {rec.get('template') or rec.get('status')}"


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Workers decode the records (graph6 lines or canonical codes) and render
    # the output lines; this process writes the lines once all are back, so
    # a malformed record leaves stdout empty.
    if args.file:
        items = graph6_records(args.file)
    else:
        if args.max_order is None:
            raise CliInputError("sweep needs --max-order or --file")
        if args.min_order < 1:
            raise CliInputError("--min-order must be at least 1")
        if args.max_order < args.min_order:
            raise CliInputError("--max-order must be at least --min-order")
        items = class_codes(args.min_order, args.max_order)
    render = _json_line if args.json else _chain_summary
    lines = sweep_chains(items, args.jobs, render=render)
    sys.stdout.writelines(line + "\n" for line in lines)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalition-kit",
        description="Coalition partitions, singleton-coalition graphs, and chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sp = sub.add_parser("sp", help="singleton-partition verdict")
    _add_input_flags(p_sp)
    p_sp.add_argument("--json", action="store_true")
    p_sp.set_defaults(fn=_cmd_sp)

    p_cnum = sub.add_parser("cnum", help="exact coalition number")
    _add_input_flags(p_cnum)
    p_cnum.add_argument("--json", action="store_true")
    p_cnum.set_defaults(fn=_cmd_cnum)

    p_cg = sub.add_parser("cg", help="coalition graph of a partition (default: all singletons)")
    _add_input_flags(p_cg)
    p_cg.add_argument("--partition", help="parts as comma/semicolon list, e.g. '0,1;2;3'")
    p_cg.add_argument("--json", action="store_true")
    p_cg.set_defaults(fn=_cmd_cg)

    p_chain = sub.add_parser("chain", help="singleton-coalition chain and its length")
    _add_input_flags(p_chain)
    p_chain.add_argument("--json", action="store_true")
    p_chain.set_defaults(fn=_cmd_chain)

    p_iso = sub.add_parser("iso", help="isomorphism test for two graphs")
    p_iso.add_argument("first", help="graph6 record, or 'named:EXPR' / 'g6:RECORD'")
    p_iso.add_argument("second", help="same syntax as the first graph")
    p_iso.add_argument("--json", action="store_true")
    p_iso.set_defaults(fn=_cmd_iso)

    p_family = sub.add_parser("family", help="recognize or generate family members")
    p_family.add_argument("action", choices=["recognize", "generate"])
    p_family.add_argument("--family", help="f1, h1, f2, h2 (recognize)")
    p_family.add_argument("--spec", help="generator spec, e.g. 'f2.3:L1=1,R2=1,seed=5'")
    _add_input_flags(p_family)
    p_family.add_argument("--json", action="store_true")
    p_family.set_defaults(fn=_cmd_family)

    p_verify = sub.add_parser("verify", help="run claims from the catalog")
    p_verify.add_argument("--theorem", help="claim id, e.g. thm8")
    p_verify.add_argument("--all", action="store_true", help="run the whole catalog")
    p_verify.add_argument("--max-order", type=int, default=6)
    p_verify.add_argument("--file", help="check the claims over graphs from a graph6 file")
    p_verify.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_verify.add_argument("--json", action="store_true", help="one JSON object per claim")
    p_verify.set_defaults(fn=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="chain records for enumerated or file graphs")
    p_sweep.add_argument("--max-order", type=int)
    p_sweep.add_argument("--min-order", type=int, default=1)
    p_sweep.add_argument("--file", help="graph6 file")
    p_sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_sweep.add_argument("--json", action="store_true", help="one JSON object per graph")
    p_sweep.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise CliInputError("--jobs must be at least 1")
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): end quietly, as the
        # default SIGPIPE action would, and point stdout at /dev/null so the
        # interpreter's flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (CliInputError, Graph6Error, NamedGraphError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
