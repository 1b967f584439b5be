"""The append-only event log: registry state as a replayable journal.

Every successful registry mutation appends exactly one JSON line::

    {"seq": 3, "op": "register", "pid": "q4", "tenant": "acme",
     "program": "program q4(row) { … }", "fingerprint": "ab12…"}
    {"seq": 4, "op": "unregister", "pid": "q2"}

The log is the service's only durable state: on restart the registry
replays it through the ordinary ``register``/``unregister`` path —
admission, plan cache and incremental patching included — so the rebuilt
plan-cache fingerprints are byte-identical to the pre-restart ones (the
CI ``service-smoke`` job asserts exactly this).  Programs are serialised
as concrete Figure-1 syntax; the parser/printer round-trip is exact.

Appends are flushed and fsync'd before the mutation is acknowledged, the
usual write-ahead discipline.  A line and its newline go in one ``write``,
so a final segment with no newline was never acknowledged: reading skips
it, opening truncates it.  Any other bad line is a ``RegistryError``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

from .errors import RegistryError

__all__ = ["Event", "EventLog"]


@dataclass(frozen=True)
class Event:
    """One registry mutation."""

    seq: int
    op: str  # "register" | "unregister"
    pid: str
    tenant: str = ""
    program: str = ""  # concrete syntax, register events only
    fingerprint: str = ""

    def to_json(self) -> str:
        doc = {k: v for k, v in asdict(self).items() if v != ""}
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "Event":
        doc = json.loads(line)
        return cls(
            seq=int(doc["seq"]),
            op=doc["op"],
            pid=doc["pid"],
            tenant=doc.get("tenant", ""),
            program=doc.get("program", ""),
            fingerprint=doc.get("fingerprint", ""),
        )


class EventLog:
    """Append-only JSONL journal of registry mutations."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        # The acknowledged events found on open, for the registry to replay.
        self.existing = self.read(self.path)
        self._next_seq = self.existing[-1].seq + 1 if self.existing else 1
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab+") as raw:
            size = raw.tell()
            raw.seek(max(0, size - 1))
            if size and raw.read(1) != b"\n":
                raw.seek(0)
                raw.truncate(raw.read().rfind(b"\n") + 1)
        self._handle = open(self.path, "a", encoding="utf-8")

    @staticmethod
    def read(path: str | Path) -> list[Event]:
        """Every acknowledged event in the journal (missing file → empty)."""

        path = Path(path)
        if not path.exists():
            return []
        events = []
        # The last segment is empty after a complete append, else torn.
        for number, line in enumerate(path.read_bytes().split(b"\n")[:-1], start=1):
            if line.strip():
                try:
                    events.append(Event.from_json(line.decode("utf-8")))
                except (ValueError, KeyError, TypeError) as exc:
                    raise RegistryError(
                        f"event log {path} is corrupt at line {number}: {exc}"
                    ) from None
        return events

    def append(
        self,
        op: str,
        pid: str,
        tenant: str = "",
        program: str = "",
        fingerprint: str = "",
    ) -> Event:
        event = Event(
            seq=self._next_seq,
            op=op,
            pid=pid,
            tenant=tenant,
            program=program,
            fingerprint=fingerprint,
        )
        self._handle.write(event.to_json() + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._next_seq += 1
        return event

    def events(self) -> Iterator[Event]:
        yield from self.read(self.path)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
