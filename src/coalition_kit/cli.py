"""Command-line front end.

Subcommands: sp, cnum, cg, chain, family, verify, sweep, iso. Graph input
comes from exactly one of ``--named`` (stock-graph expression), ``--g6``
(literal graph6 record), or ``--file`` (graph6 file, one graph per line,
read by ``graphs.Graph6Lines`` for every subcommand).

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
from contextlib import closing
from functools import partial
from json.encoder import encode_basestring_ascii

from .canon import are_isomorphic, class_pool
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
    Graph6Lines,
    NamedGraphError,
    bits,
    build_named,
    emit_graph6,
    parse_graph6,
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


def _input_graphs(args: argparse.Namespace) -> list[tuple[Graph, str]]:
    """Each input graph with its graph6: a ``--file`` line's text, read as
    ``verify`` and ``sweep`` read it, or else the built graph's encoding."""
    sources = [s for s in ("named", "g6", "file") if getattr(args, s, None)]
    if len(sources) != 1:
        raise CliInputError("provide exactly one of --named, --g6, --file")
    if args.file:
        return Graph6Lines.read(args.file).parse()
    g = build_named(args.named) if args.named else parse_graph6(args.g6)
    return [(g, emit_graph6(g))]


def _file_pool(args: argparse.Namespace, *flags: str) -> Graph6Lines | None:
    """The ``--file`` pool, or None without ``--file``. A file run takes
    every graph in the file, so none of the order ``flags`` may be given."""
    if not args.file:
        return None
    given = [flag for flag in flags if getattr(args, flag[2:].replace("-", "_")) is not None]
    if given:
        raise CliInputError(f"{' and '.join(given)} cannot be combined with --file")
    return Graph6Lines.read(args.file)


def _mask_list(mask: int) -> list[int]:
    return list(bits(mask))


# one encoder for every line: json.dumps with an option builds a new one per
# call. Every printed dict is a tree built afresh, so no circular check.
_json_line = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def _partition_blocks(text: str) -> list[list[int]]:
    blocks = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise CliInputError("empty part in partition")
        try:
            blocks.append([int(v) for v in chunk.split(",")])
        except ValueError as exc:
            raise CliInputError(f"bad partition part {chunk!r}") from exc
    return blocks


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

# A per-graph command maps (args, graph, graph6) to the graph's JSON fields
# beyond schema_version and graph6, its text line, and its verdict.


def _sp(args: argparse.Namespace, g: Graph, g6: str) -> tuple[dict, str, bool]:
    verdict = sp_check(g)
    fields = {
        "is_sp": verdict.is_sp,
        "full_vertices": _mask_list(verdict.full_vertices),
        "partner": {str(k): v for k, v in sorted(verdict.partner.items())},
        "blocking_vertex": verdict.blocking_vertex,
    }
    if verdict.is_sp:
        return fields, f"{g6}: singleton-partition graph", True
    line = f"{g6}: not a singleton-partition graph (blocking vertex {verdict.blocking_vertex})"
    return fields, line, False


def _cnum(args: argparse.Namespace, g: Graph, g6: str) -> tuple[dict, str, bool]:
    result = coalition_number_exact(g)
    witness = None if result.witness is None else [_mask_list(p) for p in result.witness.parts]
    return {"value": result.value, "witness": witness}, str(result.value), True


def _cg(
    partitions: dict[int, Partition], args: argparse.Namespace, g: Graph, g6: str
) -> tuple[dict, str, bool]:
    partition = partitions[g.n] if args.partition else singleton_partition(g)
    image = emit_graph6(coalition_graph(g, partition))
    fields = {"partition": [_mask_list(p) for p in partition.parts], "coalition_graph6": image}
    return fields, image, True


def _chain(args: argparse.Namespace, g: Graph, g6: str) -> tuple[dict, str, bool]:
    rec = chain_record(g, g6)
    return rec, _chain_summary(rec, arrows=True), True


_RECOGNIZE = {
    "f1": recognize_f1,
    "h1": recognize_h1,
    "f2": recognize_f2,
    "h2": recognize_h2,
}


def _witness_json(wit) -> dict:
    out = {}
    for key, value in wit._asdict().items():
        if key.endswith("_set") or key in {"l1", "r1", "r2", "l2"}:
            out[key] = _mask_list(value)
        else:
            out[key] = value
    return out


def _recognize(args: argparse.Namespace, g: Graph, g6: str) -> tuple[dict, str, bool]:
    wit = _RECOGNIZE[args.family](g)
    fields = {"family": args.family, "member": wit is not None}
    if wit is None:
        return fields, f"{g6}: not a member of {args.family}", False
    fields["witness"] = _witness_json(wit)
    return fields, f"{g6}: member of {args.family} with {wit}", True


def _each(one, args: argparse.Namespace, records: list | None = None) -> int:
    """Run the per-graph command ``one`` on every input graph (``records``,
    read from the input flags if not given), printing its record or text
    line as it goes; 1 if any verdict is false."""
    failed = False
    for g, g6 in _input_graphs(args) if records is None else records:
        fields, line, verdict = one(args, g, g6)
        if args.json:
            print(_json_line({"schema_version": SCHEMA_VERSION, "graph6": g6, **fields}))
        else:
            print(line)
        failed = failed or not verdict
    return 1 if failed else 0


def _cmd_cg(args: argparse.Namespace) -> int:
    # the partition is fitted to every input graph before any record is
    # printed; a graph it does not fit is named as a malformed record is
    records = _input_graphs(args)
    partitions: dict[int, Partition] = {}
    if args.partition:
        blocks = _partition_blocks(args.partition)
        for k, (g, _) in enumerate(records):
            if g.n in partitions:
                continue
            try:
                partitions[g.n] = Partition.from_blocks(g.n, blocks)
            except ValueError as exc:
                where = ""
                if args.file:
                    where = f"{args.file}:{Graph6Lines.read(args.file).line_numbers()[k]}: "
                raise CliInputError(f"{where}invalid partition: {exc}") from exc
    return _each(partial(_cg, partitions), args, records)


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
        record = {"first": emit_graph6(g), "second": emit_graph6(h), "isomorphic": same}
        print(_json_line({"schema_version": SCHEMA_VERSION, **record}))
    else:
        print("isomorphic" if same else "not isomorphic")
    return 0 if same else 1


def _cmd_family(args: argparse.Namespace) -> int:
    if args.action == "generate":
        if not args.spec:
            raise CliInputError("generate needs --spec, e.g. 'f2.1:R1=2,seed=7'")
        g6 = emit_graph6(generate_family(parse_family_spec(args.spec)))
        record = {"schema_version": SCHEMA_VERSION, "spec": args.spec, "graph6": g6}
        print(_json_line(record) if args.json else g6)
        return 0
    if not args.family:
        raise CliInputError("recognize needs --family (f1, h1, f2, h2)")
    if args.family not in _RECOGNIZE:
        raise CliInputError(f"unknown family {args.family!r}; expected f1, h1, f2, h2")
    return _each(_recognize, args)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.all and args.theorem:
        raise CliInputError("--all cannot be combined with --theorem")
    pool = _file_pool(args, "--max-order")
    n_max = 6 if args.max_order is None else args.max_order
    if n_max < 1:
        raise CliInputError("--max-order must be at least 1")
    ids = [args.theorem] if args.theorem else all_theorem_ids()
    failed = False
    for report in verify_claims(ids, n_max, args.jobs, pool):
        if args.json:
            print(_json_line(report.to_json()))
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


# The not-SP record of ``verify.chain_record`` as ``_json_line`` prints it,
# keys sorted, with its line end; only the %-fields vary.
_NOT_SP_JSON_LINE = (
    '{"blocking_vertex": %d, "chain": [%s], "full_vertices": %d, "graph6": %s, '
    '"lscc": {"kind": "Finite", "start_not_sp": true, "value": 0}, "min_degree": %d, '
    '"order": %d, "outcome": {"last_index": 0, "type": "terminated"}, '
    f'"schema_version": {SCHEMA_VERSION}, "status": "not-sp", "template": null}}\n'
)


def _sweep_json_line(rec: dict) -> str:
    """``_json_line(rec)`` with its line end. A not-SP record, most of a
    sweep's, has one shape, so it fills ``_NOT_SP_JSON_LINE`` in about a
    sixth of the encoder's time; graph6 may hold a backslash, so it is
    quoted as the encoder quotes it."""
    if rec["status"] != "not-sp":
        return _json_line(rec) + "\n"
    g6 = encode_basestring_ascii(rec["graph6"])
    fields = rec["blocking_vertex"], g6, rec["full_vertices"], g6, rec["min_degree"], rec["order"]
    return _NOT_SP_JSON_LINE % fields


def _sweep_text_line(rec: dict) -> str:
    return _chain_summary(rec) + "\n"


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Workers read their ranges of the pool (a file's lines or packed
    # canonical codes) and render the output lines, line ends included; this
    # process writes each chunk's lines as they come back. A file is checked
    # whole before any chunk runs, so a malformed record still leaves stdout
    # empty.
    pool = _file_pool(args, "--max-order", "--min-order")
    if pool is None:
        min_order = 1 if args.min_order is None else args.min_order
        if args.max_order is None:
            raise CliInputError("sweep needs --max-order or --file")
        if min_order < 1:
            raise CliInputError("--min-order must be at least 1")
        if args.max_order < min_order:
            raise CliInputError("--max-order must be at least --min-order")
        pool = class_pool(min_order, args.max_order)
    render = _sweep_json_line if args.json else _sweep_text_line
    # closed on any exit, so that a failed write kills and reaps the workers
    with closing(sweep_chains(pool, args.jobs, render=render)) as lines:
        sys.stdout.writelines(lines)
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
    for name, about, fn in (
        ("sp", "singleton-partition verdict", partial(_each, _sp)),
        ("cnum", "exact coalition number", partial(_each, _cnum)),
        ("cg", "coalition graph of a partition (default: all singletons)", _cmd_cg),
        ("chain", "singleton-coalition chain and its length", partial(_each, _chain)),
    ):
        p = sub.add_parser(name, help=about)
        _add_input_flags(p)
        p.set_defaults(fn=fn)
    partition_help = "parts as comma/semicolon list, e.g. '0,1;2;3'"
    sub.choices["cg"].add_argument("--partition", help=partition_help)

    p_iso = sub.add_parser("iso", help="isomorphism test for two graphs")
    p_iso.add_argument("first", help="graph6 record, or 'named:EXPR' / 'g6:RECORD'")
    p_iso.add_argument("second", help="same syntax as the first graph")
    p_iso.set_defaults(fn=_cmd_iso)

    p_family = sub.add_parser("family", help="recognize or generate family members")
    p_family.add_argument("action", choices=["recognize", "generate"])
    p_family.add_argument("--family", help="f1, h1, f2, h2 (recognize)")
    p_family.add_argument("--spec", help="generator spec, e.g. 'f2.3:L1=1,R2=1,seed=5'")
    _add_input_flags(p_family)
    p_family.set_defaults(fn=_cmd_family)

    p_verify = sub.add_parser("verify", help="run claims from the catalog")
    p_verify.add_argument("--theorem", help="claim id, e.g. thm8")
    p_verify.add_argument("--all", action="store_true", help="run the whole catalog")
    p_verify.add_argument("--max-order", type=int)  # None reads as 6
    p_verify.add_argument("--file", help="check the claims over graphs from a graph6 file")
    p_verify.set_defaults(fn=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="chain records for enumerated or file graphs")
    p_sweep.add_argument("--max-order", type=int)
    p_sweep.add_argument("--min-order", type=int, help="least order (default 1)")
    p_sweep.add_argument("--file", help="graph6 file")
    p_sweep.set_defaults(fn=_cmd_sweep)

    # every subcommand ends with --json, and the pooled ones with --jobs before it
    json_help = {"verify": "one JSON object per claim", "sweep": "one JSON object per graph"}
    for name, p in sub.choices.items():
        if name in json_help:
            p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
        p.add_argument("--json", action="store_true", help=json_help.get(name))
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
