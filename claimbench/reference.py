"""Label-free reference outputs and the check of a CLI output against them.

The reference keeps only fields that do not depend on vertex labels or record
order, so every seeded relabeling of the inputs has the same reference:

- verify: per claim, ``passed``, ``graphs_checked``, ``order_range`` and
  ``extras``;
- sweep: per input class, ``order``, ``min_degree``, ``full_vertices``,
  ``status``, ``template``, ``lscc``, ``outcome`` and the chain length.

Only the reference's fields are compared, and a dict in the reference only
constrains the keys it has, so fields added to the reports later do not count
as failures.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

from graphdata import DATA_DIR

REFERENCE = DATA_DIR / "reference.json.gz"

VERIFY_FIELDS = ("passed", "graphs_checked", "order_range", "extras")
SWEEP_FIELDS = ("order", "min_degree", "full_vertices", "status", "template", "lscc", "outcome")


def verify_entry(record: dict) -> dict:
    return {key: record.get(key) for key in VERIFY_FIELDS}


def sweep_entry(record: dict) -> dict:
    entry = {key: record.get(key) for key in SWEEP_FIELDS}
    entry["chain_length"] = len(record["chain"]) if "chain" in record else None
    return entry


def matches(ref, out) -> bool:
    """``out`` agrees with ``ref`` on every field ``ref`` has."""
    if isinstance(ref, dict):
        return isinstance(out, dict) and all(
            key in out and matches(value, out[key]) for key, value in ref.items()
        )
    return ref == out


def parse_lines(text: str) -> list[dict | None]:
    """JSON records of a CLI output, ``None`` for a line that is not one."""
    records: list[dict | None] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            rec = None
        records.append(rec if isinstance(rec, dict) else None)
    return records


def failed_verify(reference: dict[str, dict], records: list[dict | None]) -> int:
    """Claims missing, FAIL, or disagreeing with the reference."""
    by_id = {r["theorem_id"]: r for r in records if r is not None and "theorem_id" in r}
    failed = 0
    for theorem_id, ref in reference.items():
        rec = by_id.get(theorem_id)
        if rec is None or rec.get("passed") is not True or not matches(ref, verify_entry(rec)):
            failed += 1
    return failed


def failed_sweep(
    reference: list[dict], class_of_line: list[int], records: list[dict | None]
) -> int:
    """Input records whose output is missing or disagrees with the reference
    of its class. Output record i answers input line i."""
    failed = 0
    for i, k in enumerate(class_of_line):
        rec = records[i] if i < len(records) else None
        if rec is None or not matches(reference[k], sweep_entry(rec)):
            failed += 1
    return failed


def load() -> dict:
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save(reference: dict, path: Path = REFERENCE) -> None:
    text = json.dumps(reference, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the compressed bytes identical across regenerations.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
