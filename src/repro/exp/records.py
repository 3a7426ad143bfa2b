"""The sweep record format: schemas, canonical JSONL, digests, validation.

Every seeded sweep records one plain-dict row per repetition -- the
run-table's ``runtable/v1`` rows and the chaos campaign's ``chaos/v1``
rows, which are run-table rows plus the ``campaign``, ``policy`` and
``regime`` columns.  This module is the one place that says what a row
holds, how rows render as canonical JSONL, how a set of rows is
digested (the determinism anchor CI pins), and how an emitted file is
checked.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from typing import Iterable

_NUMBER = (int, float)


def sha256_lines(lines: Iterable[str]) -> str:
    """sha256 over ``lines``, each followed by ``"\\n"``."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass(frozen=True)
class Schema:
    """A row format: its ``schema`` tag and required fields with types."""

    tag: str
    fields: dict

    def validate(self, row: dict, where: str = "row") -> None:
        """Raise ``ValueError`` unless ``row`` matches this schema."""
        if not isinstance(row, dict):
            raise ValueError(f"{where}: not a JSON object")
        if row.get("schema") != self.tag:
            raise ValueError(
                f"{where}: schema is {row.get('schema')!r}, want {self.tag!r}"
            )
        for key, types in self.fields.items():
            if key not in row:
                raise ValueError(f"{where}: missing field {key!r}")
            value = row[key]
            # bool is an int subclass: only bool fields may hold a bool.
            if (isinstance(value, bool) != (types == (bool,))
                    or not isinstance(value, types)):
                raise ValueError(
                    f"{where}: field {key!r} has type "
                    f"{type(value).__name__}, want "
                    f"{'/'.join(t.__name__ for t in types)}"
                )
        offered, completed, failed = (
            row["offered"], row["completed"], row["failed"]
        )
        if completed + failed != offered:
            raise ValueError(
                f"{where}: completed ({completed}) + failed ({failed}) "
                f"!= offered ({offered})"
            )
        if not 0.0 <= row["failure_rate"] <= 1.0:
            raise ValueError(
                f"{where}: failure_rate {row['failure_rate']} outside [0, 1]"
            )


#: One repetition of one run-table arm.
RUNTABLE = Schema("runtable/v1", {
    "schema": (str,),
    "arm": (str,),
    "topology": (str,),
    "n_endpoints": (int,),
    "rep": (int,),
    "seed": (str,),
    "chaos": (bool,),
    "offered": (int,),
    "completed": (int,),
    "failed": (int,),
    "retries": (int,),
    "injected": (int,),
    "failure_rate": _NUMBER,
    "offered_rate_per_s": _NUMBER,
    "throughput_per_s": _NUMBER,
    "duration_us": _NUMBER,
    "p50_us": _NUMBER,
    "p95_us": _NUMBER,
    "p99_us": _NUMBER,
    "fingerprint": (str,),
})

#: A run-table row that also names its campaign, policy and regime.
CHAOS = Schema("chaos/v1", {
    **RUNTABLE.fields,
    "campaign": (str,),
    "policy": (str,),
    "regime": (str,),
})

ROW_SCHEMA, validate_row = RUNTABLE.tag, RUNTABLE.validate
CHAOS_SCHEMA, validate_chaos_row = CHAOS.tag, CHAOS.validate


class RecordSet:
    """Canonical JSONL, digest and file output for anything with rows."""

    def rows(self) -> list[dict]:
        raise NotImplementedError

    def jsonl(self) -> list[str]:
        """Canonical JSONL lines (sorted keys, compact separators)."""
        return [
            json.dumps(row, sort_keys=True, separators=(",", ":"))
            for row in self.rows()
        ]

    def digest(self) -> str:
        """sha256 over the canonical JSONL -- the determinism anchor."""
        return sha256_lines(self.jsonl())

    def write_jsonl(self, path) -> int:
        lines = self.jsonl()
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        return len(lines)


def validate_file(path, schema: Schema) -> int:
    """Check every row of a JSONL file; print the verdict, return a
    process exit status (0 when every row is valid)."""
    count = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                where = f"{path}:{lineno}"
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{where}: not JSON: {exc}") from None
                schema.validate(row, where=where)
                count += 1
        if count == 0:
            raise ValueError(f"{path}: no rows")
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"{path}: {count} rows OK ({schema.tag})")
    return 0
