"""The on-disk regression corpus (``tests/corpus/``) and its replayer.

Every file is one minimized case in a line-oriented text format that both
humans and the concrete-syntax parser read directly::

    # name: compile-notify-flip
    # schema: weather
    # seed: 41
    # size: 2
    # fault: miscompile
    # expect: discrepancy
    # note: minimal program whose notification a miscompile flips
    program q0(row) {
      notify q0 true;
    }

Header lines are ``# key: value`` pairs; everything after the first
non-comment line is a sequence of programs in the concrete syntax of
:mod:`repro.lang.parser`.  Recognised keys:

* ``schema`` (required) — one of the five domain schemas;
* ``fault`` — a fault context from :mod:`repro.testing.faults` to replay
  under (default ``none``);
* ``expect`` — ``pass`` (default; the battery must report *zero*
  discrepancies), ``discrepancy`` (the battery must catch at least one:
  these cases pin down that the oracle detects a bug class) or ``reject``
  (the service's admission pipeline must refuse at least one of the
  programs: the batch is stopped at the door, the battery is not run);
* ``inputs`` — JSON list of row handles to drive the oracles with
  (default: the standard spread of the schema's dataset);
* ``seed``/``size``/``name``/``note`` — provenance, free-form.

Replaying a case (:func:`replay_case`) runs the full differential oracle
battery under the declared fault and checks the declared expectation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from ..lang.ast import Program
from ..lang.parser import parse_program
from ..lang.printer import program_to_str

__all__ = ["CorpusCase", "read_case", "write_case", "replay_case", "corpus_files"]

_HEADER_RE = re.compile(r"^#\s*([A-Za-z_]+)\s*:\s*(.*)$")

_FAULTS = ("none", "smt_unknown", "smt_crash", "compile_cache_miss",
           "compile_fallback", "miscompile", "consolidation_pair_crash",
           "vectorize_crash", "vectorize_mismask")


@dataclass
class CorpusCase:
    """One replayable regression case."""

    schema: str
    programs: list[Program]
    name: str = ""
    fault: str = "none"
    expect: str = "pass"  # 'pass' | 'discrepancy' | 'reject'
    inputs: list[int] | None = None
    meta: dict = field(default_factory=dict)


def _fault_context(fault: str):
    from contextlib import nullcontext

    from . import faults

    if fault == "none":
        return nullcontext()
    if fault not in _FAULTS:
        raise ValueError(f"unknown fault {fault!r}; choose from {_FAULTS}")
    return getattr(faults, fault)()


def read_case(path: str | Path) -> CorpusCase:
    """Parse one corpus file."""

    text = Path(path).read_text()
    meta: dict[str, str] = {}
    body_lines: list[str] = []
    in_header = True
    for line in text.splitlines():
        if in_header:
            m = _HEADER_RE.match(line)
            if m:
                meta[m.group(1).lower()] = m.group(2).strip()
                continue
            if not line.strip():
                continue
            in_header = False
        body_lines.append(line)
    if "schema" not in meta:
        raise ValueError(f"{path}: missing '# schema:' header")

    # Split the body at each top-level "program " keyword.
    chunks: list[list[str]] = []
    for line in body_lines:
        if line.lstrip().startswith("program "):
            chunks.append([line])
        elif chunks:
            chunks[-1].append(line)
        elif line.strip():
            raise ValueError(f"{path}: content before first program: {line!r}")
    if not chunks:
        raise ValueError(f"{path}: no programs")
    programs = [parse_program("\n".join(chunk)) for chunk in chunks]

    inputs = None
    if "inputs" in meta:
        inputs = json.loads(meta["inputs"])
    return CorpusCase(
        schema=meta["schema"],
        programs=programs,
        name=meta.get("name", Path(path).stem),
        fault=meta.get("fault", "none"),
        expect=meta.get("expect", "pass"),
        inputs=inputs,
        meta=meta,
    )


def write_case(path: str | Path, case: CorpusCase) -> Path:
    """Render one case to disk in the corpus format; returns the path."""

    path = Path(path)
    lines = [f"# name: {case.name or path.stem}", f"# schema: {case.schema}"]
    for key in ("seed", "size", "note"):
        if key in case.meta:
            lines.append(f"# {key}: {case.meta[key]}")
    if case.fault != "none":
        lines.append(f"# fault: {case.fault}")
    if case.expect != "pass":
        lines.append(f"# expect: {case.expect}")
    if case.inputs is not None:
        lines.append(f"# inputs: {json.dumps(case.inputs)}")
    lines.append("")
    for program in case.programs:
        lines.append(program_to_str(program).rstrip())
        lines.append("")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines))
    return path


def replay_case(case: CorpusCase):
    """Run the oracle battery on a corpus case under its declared fault.

    Returns the :class:`~repro.testing.oracles.BatteryResult`; raises
    ``AssertionError`` when the outcome contradicts the case's ``expect``
    header.
    """

    from .generator import schema_dataset
    from .oracles import BatteryResult, Discrepancy, run_battery

    dataset = schema_dataset(case.schema)
    if case.expect == "reject":
        from ..service.admission import admit
        from ..service.errors import AdmissionError

        refused = BatteryResult()
        for program in case.programs:
            try:
                admit(program, dataset.functions)
            except AdmissionError as exc:
                refused.discrepancies.append(Discrepancy("admission", str(exc)))
        if refused.ok:
            raise AssertionError(
                f"corpus case {case.name!r} expected admission to refuse a program, "
                "but every one was admitted"
            )
        return refused
    param = case.programs[0].params[0]
    inputs = None
    if case.inputs is not None:
        inputs = [{param: row} for row in case.inputs]
    check_validator = True
    if case.fault != "none":
        # Under an injected fault the static validator is not a meaningful
        # oracle (solver crashes escape through it); what a fault case
        # asserts is that the *execution* paths still agree — dataflow
        # equality, soundness, backend differential.
        check_validator = case.fault in (
            "smt_unknown", "compile_cache_miss",
            "vectorize_crash", "vectorize_mismask",
        )
    with _fault_context(case.fault):
        result = run_battery(
            case.programs,
            dataset,
            inputs=inputs,
            check_validator=check_validator,
        )
    if case.expect == "pass" and not result.ok:
        raise AssertionError(
            f"corpus case {case.name!r} expected zero discrepancies, got: "
            + "; ".join(str(d) for d in result.discrepancies)
        )
    if case.expect == "discrepancy" and result.ok:
        raise AssertionError(
            f"corpus case {case.name!r} expected the battery to catch a "
            "discrepancy, but every oracle passed — the harness lost its "
            "ability to detect this bug class"
        )
    return result


def corpus_files(directory: str | Path) -> list[Path]:
    """All corpus case files under ``directory``, sorted for determinism."""

    return sorted(Path(directory).glob("*.txt"))
