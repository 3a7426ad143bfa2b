"""Request traces: the portable record of *what* a workload asked for.

A planned workload -- whether drawn from a stochastic process or
replayed from a file -- is a list of :class:`RequestRecord`.  Endpoints
are stored as *indices into the fabric's sorted address list*, not raw
addresses, so the same trace replays onto any topology with enough
endpoints (the point of trace-driven replay: identical offered load,
different interconnect).

The JSONL schema (one request per line)::

    {"t_us": 1234.5, "frontend": 0,
     "targets": [[9, 64, 256, 0.0], [17, 64, 256, 0.0]]}

``targets`` entries are ``[backend_index, request_bytes, reply_bytes,
service_us]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

#: JSONL schema tag for trace files.
TRACE_SCHEMA = "workload-trace/v1"


@dataclass(frozen=True, slots=True)
class RequestTarget:
    """One fan-out leg of a request."""

    backend: int        #: backend endpoint *index* (into fabric addresses)
    request_bytes: int  #: frontend -> backend payload size
    reply_bytes: int    #: backend -> frontend payload size
    service_us: float   #: simulated service time at the backend


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One planned request: arrival instant plus its call graph."""

    rid: int            #: request id, unique within the plan
    t_us: float         #: arrival time, relative to the run's start
    frontend: int       #: frontend endpoint *index*
    targets: tuple[RequestTarget, ...]

    def line(self) -> str:
        """The request's canonical JSONL line (no rid: ids are
        positional, line N is request N)."""
        return json.dumps(
            {
                "t_us": round(self.t_us, 3),
                "frontend": self.frontend,
                "targets": [
                    [t.backend, t.request_bytes, t.reply_bytes,
                     round(t.service_us, 3)]
                    for t in self.targets
                ],
            },
            separators=(",", ":"),
        )


def trace_fingerprint(records: Iterable[RequestRecord]) -> str:
    """sha256 over the canonical JSONL rendering of ``records``.

    Two plans with the same fingerprint offered byte-identical load;
    this is the seeded-determinism anchor the tests pin.
    """
    # Imported here: repro.exp imports this package.
    from repro.exp.records import sha256_lines

    return sha256_lines(record.line() for record in records)


def dump_trace(
    records: Iterable[RequestRecord], path: Union[str, Path]
) -> int:
    """Write ``records`` as JSONL (header line + one line per request).

    Returns the number of request lines written.
    """
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": TRACE_SCHEMA}) + "\n")
        for record in records:
            fh.write(record.line() + "\n")
            count += 1
    return count


def _parse_record(rid: int, raw: dict, where: str) -> RequestRecord:
    try:
        t_us = float(raw["t_us"])
        frontend = int(raw["frontend"])
        targets = tuple(
            RequestTarget(
                backend=int(backend),
                request_bytes=int(request_bytes),
                reply_bytes=int(reply_bytes),
                service_us=float(service_us),
            )
            for backend, request_bytes, reply_bytes, service_us
            in raw["targets"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{where}: malformed trace record: {exc}") from exc
    if t_us < 0:
        raise ValueError(f"{where}: negative arrival time {t_us}")
    if not targets:
        raise ValueError(f"{where}: request with no targets")
    return RequestRecord(rid=rid, t_us=t_us, frontend=frontend,
                         targets=targets)


def load_trace(
    path: Union[str, Path], limit: Optional[int] = None
) -> list[RequestRecord]:
    """Read a JSONL trace written by :func:`dump_trace`.

    A leading ``{"schema": ...}`` header line is validated and skipped;
    headerless files (hand-written traces) are accepted.  ``limit``
    truncates long traces for smoke runs.
    """
    path = Path(path)
    records: list[RequestRecord] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            if "schema" in raw and "t_us" not in raw:
                if raw["schema"] != TRACE_SCHEMA:
                    raise ValueError(
                        f"{path}:{lineno}: unsupported trace schema "
                        f"{raw['schema']!r} (want {TRACE_SCHEMA!r})"
                    )
                continue
            if limit is not None and len(records) >= limit:
                break
            records.append(
                _parse_record(len(records), raw, f"{path}:{lineno}")
            )
    if not records:
        raise ValueError(f"{path}: trace contains no requests")
    return records
