"""Where the traced pass puts its wrappers: one span name per layer.

A layer is a module of ``repro``; its span name is the module path without
the ``repro.`` prefix (``analysis.static.lint`` is shortened to
``analysis.lint``, ``analysis.static.validate`` to ``analysis.validate``).
Only public names are wrapped.  Entries are
``(span name, module, attribute[, mode])`` as :meth:`trace.Tracer.install`
takes them.

Functions called once per record or per term are wrapped in ``aggregate``
mode (see :mod:`trace`).
"""

from __future__ import annotations

_CONTEXT_METHODS = (
    "entails_expr",
    "provably_equal",
    "provably_equiv_bool",
    "simplify_int",
    "simplify_bool",
    "simplify_for_sort",
    "record_assign",
    "kill_var",
    "kill_vars",
    "assume",
    "assuming",
    "observe",
    "forget",
    "branch",
)

_SP_METHODS = ("encode_bool", "encode_int", "assume", "havoc", "assign", "post")

_EUF_METHODS = (
    "add_term",
    "assert_equal",
    "are_equal",
    "root_id",
    "representative",
    "equivalence_classes",
    "class_of",
    "has_constant_conflict",
    "constant_of",
)

PATCH_POINTS: list[tuple] = [
    # frontend / admission (service only)
    ("lang.parser", "repro.lang.parser", "parse_program"),
    ("analysis.lint", "repro.analysis.static.lint", "lint_program"),
    ("service.admission", "repro.service.admission", "admit"),
    ("service.fingerprint", "repro.service.fingerprint", "fingerprint"),
    ("service.fingerprint", "repro.service.fingerprint", "plan_key"),
    ("service.events", "repro.service.events", "EventLog.append"),
    ("service.events", "repro.service.events", "EventLog.read"),
    # registry and incremental re-consolidation
    ("service.registry", "repro.service.registry", "QueryRegistry.__init__"),
    ("service.registry", "repro.service.registry", "QueryRegistry.register"),
    ("service.registry", "repro.service.registry", "QueryRegistry.unregister"),
    ("service.registry", "repro.service.registry", "QueryRegistry.plan"),
    ("service.registry.run", "repro.service.registry", "QueryRegistry.run"),
    ("consolidation.incremental.add", "repro.consolidation.incremental", "add_query"),
    ("consolidation.incremental.remove", "repro.consolidation.incremental", "remove_query"),
    ("consolidation.incremental.rebuild", "repro.consolidation.incremental", "rebuild"),
    ("analysis.validate", "repro.analysis.static.validate", "validate_consolidation"),
    # the consolidation calculus
    ("consolidation.divide_conquer", "repro.consolidation.divide_conquer", "consolidate_all"),
    ("consolidation.algorithm", "repro.consolidation.algorithm", "Consolidator.consolidate"),
    *[
        ("consolidation.simplifier", "repro.consolidation.simplifier", f"Context.{m}")
        for m in _CONTEXT_METHODS
    ],
    ("analysis.invariants", "repro.analysis.invariants", "loop_invariant"),
    *[("analysis.sp", "repro.analysis.sp", f"SpEngine.{m}") for m in _SP_METHODS],
    # SMT
    ("smt.solver", "repro.smt.solver", "Solver.is_sat"),
    ("smt.cnf", "repro.smt.cnf", "CnfBuilder.assert_formula"),
    ("smt.cnf", "repro.smt.cnf", "CnfBuilder.sufficient_literals"),
    ("smt.sat", "repro.smt.sat", "SatSolver.solve"),
    ("smt.combine", "repro.smt.combine", "check_literals"),
    ("smt.combine", "repro.smt.combine", "minimize_core"),
    ("smt.lia", "repro.smt.lia", "lia_check"),
    ("smt.lia", "repro.smt.lia", "lia_implies_eq"),
    *[
        ("smt.euf", "repro.smt.euf", f"CongruenceClosure.{m}", "aggregate")
        for m in _EUF_METHODS
    ],
    # lowering and execution
    ("lang.compile", "repro.lang.compile", "compile_cached"),
    ("lang.compile", "repro.lang.compile", "make_runner", ("factory", "lang.compile.udf")),
    ("lang.vectorize", "repro.lang.vectorize", "vectorize_cached"),
    ("lang.vectorize.batch", "repro.lang.vectorize", "VectorizedProgram.run_batch"),
    ("naiad.run", "repro.naiad.linq", "Query.run"),
]
