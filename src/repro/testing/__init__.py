"""Differential fuzzing and fault-injection harness (the testing subsystem).

The paper's central claim is *semantic*: the consolidated program is
observationally equivalent to running the UDFs in sequence and never costs
more (Theorems 1-2).  This package backs that claim with adversarial,
replayable machinery:

* :mod:`repro.testing.generator` — a typed random program generator
  producing well-formed Figure-1 UDFs over all five domain schemas; every
  case is a replayable ``(seed, schema, size)`` triple;
* :mod:`repro.testing.oracles` — the differential oracle battery:
  interpreter vs compiled backend, ``whereMany`` vs ``whereConsolidated``,
  serial vs process ``consolidate_all``, exact cost accounting
  and the cost-never-worse bound, with the static validator as cross-check;
* :mod:`repro.testing.faults` — context-manager fault injection into the
  SMT solver, the compile pipeline and the consolidation driver, asserting
  the system degrades to the sequential baseline instead of crashing or
  miscompiling;
* :mod:`repro.testing.shrinker` — a delta-debugging minimiser over the UDF
  AST for failing cases;
* :mod:`repro.testing.corpus` — the on-disk regression corpus format
  (``tests/corpus/``) and its replay loader;
* :mod:`repro.testing.fuzz` — the fuzzing driver behind ``repro fuzz``.
"""

from .generator import (
    SCHEMAS,
    CaseSpec,
    case_inputs,
    drop_arm_assignment,
    generate_case,
    schema_dataset,
)
from .oracles import BatteryResult, Discrepancy, run_battery
from .faults import (
    compile_cache_miss,
    compile_fallback,
    consolidation_pair_crash,
    fault_hook,
    miscompile,
    smt_crash,
    smt_unknown,
    vectorize_crash,
    vectorize_mismask,
)
from .shrinker import shrink_batch
from .corpus import CorpusCase, corpus_files, read_case, replay_case, write_case
from .fuzz import FuzzFailure, FuzzReport, run_fuzz

__all__ = [
    "SCHEMAS",
    "CaseSpec",
    "generate_case",
    "drop_arm_assignment",
    "case_inputs",
    "schema_dataset",
    "BatteryResult",
    "Discrepancy",
    "run_battery",
    "fault_hook",
    "smt_unknown",
    "smt_crash",
    "compile_cache_miss",
    "compile_fallback",
    "miscompile",
    "consolidation_pair_crash",
    "vectorize_crash",
    "vectorize_mismask",
    "shrink_batch",
    "CorpusCase",
    "corpus_files",
    "read_case",
    "write_case",
    "replay_case",
    "FuzzFailure",
    "FuzzReport",
    "run_fuzz",
]
