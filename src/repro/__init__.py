"""repro — a reproduction of "Consolidation of Queries with User-Defined
Functions" (Sousa, Dillig, Vytiniotis, Dillig, Gkantsidis; PLDI 2014).

Public API tour:

* :mod:`repro.lang` — the consolidation language (Fig 1) and its
  cost-annotated interpreter (Fig 2);
* :mod:`repro.frontend` — write UDFs as restricted Python functions;
* :mod:`repro.smt` — the built-in QF_UFLIA solver (Z3 substitute);
* :mod:`repro.analysis` — strongest postconditions, loop invariants;
* :mod:`repro.consolidation` — the calculus and algorithm (Figs 3/5/7/8),
  the divide-and-conquer driver, and the dynamic Theorem 1 checker;
* :mod:`repro.naiad` — the mini timely-dataflow engine with the
  ``whereMany`` / ``whereConsolidated`` operators (Section 6.1);
* :mod:`repro.datasets` / :mod:`repro.queries` — the five evaluation
  domains and their query families (Section 6.2);
* :mod:`repro.experiments` — Figure 9 / Figure 10 harnesses;
* :mod:`repro.api` — the stable five-verb facade (``consolidate``,
  ``run``, ``register``, ``unregister``, ``explain``) shared by the CLI
  and the service;
* :mod:`repro.service` — consolidation as a long-running service:
  dynamic query registry, plan cache, incremental re-consolidation,
  ``repro serve`` + a typed HTTP client;
* :mod:`repro.config` / :mod:`repro.telemetry` — the one-object run
  configuration (:class:`ExecutionConfig`) and the observability layer
  (:class:`Telemetry`, metrics registry, tracing spans, sinks).

Quick start::

    import repro

    ds = repro.generate_weather(cities=50)
    programs = [repro.parse(src1), repro.parse(src2)]
    merged = repro.consolidate(programs, ds.functions)

    cfg = repro.ExecutionConfig(telemetry=repro.Telemetry.capture())
    result = repro.run_where_many(ds.rows, programs, ds.functions, config=cfg)
"""

from .config import ExecutionConfig, ServiceConfig
from .consolidation import (
    ConsolidationOptions,
    ConsolidationReport,
    Consolidator,
    check_soundness,
    consolidate_all,
)
from .datasets import (
    Dataset,
    generate_flights,
    generate_news,
    generate_stocks,
    generate_twitter,
    generate_weather,
)
from .frontend import TranslationError, translate_source, translate_udf
from .lang import (
    CostModel,
    FunctionTable,
    Interpreter,
    LibraryFunction,
    Program,
    parse_program,
    program_to_str,
    run_program,
    run_sequentially,
)
from .lang.builder import (
    add,
    and_,
    arg,
    assign,
    block,
    call,
    conj,
    disj,
    eq,
    ge,
    gt,
    if_,
    ite_notify,
    le,
    lift,
    lt,
    mul,
    ne,
    not_,
    notify,
    or_,
    program,
    sub,
    var,
    while_,
)
from .naiad import Query, from_collection, run_where_consolidated, run_where_many
from . import api
from .telemetry import (
    InMemorySink,
    JsonlFileSink,
    MetricsRegistry,
    NULL_TELEMETRY,
    PrometheusTextSink,
    Telemetry,
    Tracer,
    prometheus_text,
)

__version__ = "11.0.0"

# ``parse`` is the friendly alias for the concrete-syntax parser.
parse = parse_program

__all__ = [
    # the stable five-verb facade (register/unregister/consolidate/run/explain)
    "api",
    # configuration + observability
    "ExecutionConfig",
    "ServiceConfig",
    "Telemetry",
    "NULL_TELEMETRY",
    "MetricsRegistry",
    "Tracer",
    "InMemorySink",
    "JsonlFileSink",
    "PrometheusTextSink",
    "prometheus_text",
    # language
    "Program",
    "CostModel",
    "FunctionTable",
    "LibraryFunction",
    "Interpreter",
    "parse",
    "parse_program",
    "program_to_str",
    "run_program",
    "run_sequentially",
    # program builder
    "add",
    "and_",
    "arg",
    "assign",
    "block",
    "call",
    "conj",
    "disj",
    "eq",
    "ge",
    "gt",
    "if_",
    "ite_notify",
    "le",
    "lift",
    "lt",
    "mul",
    "ne",
    "not_",
    "notify",
    "or_",
    "program",
    "sub",
    "var",
    "while_",
    # python frontend
    "translate_udf",
    "translate_source",
    "TranslationError",
    # consolidation
    "consolidate",
    "consolidate_all",
    "ConsolidationOptions",
    "ConsolidationReport",
    "Consolidator",
    "check_soundness",
    # dataflow
    "Query",
    "from_collection",
    "run_where_many",
    "run_where_consolidated",
    # datasets
    "Dataset",
    "generate_weather",
    "generate_flights",
    "generate_news",
    "generate_twitter",
    "generate_stocks",
]


def consolidate(programs, functions, **kwargs):
    """Merge a batch of UDF programs into one (divide-and-conquer).

    Convenience wrapper around
    :func:`repro.consolidation.divide_conquer.consolidate_all`; returns the
    merged :class:`~repro.lang.ast.Program`.
    """

    return consolidate_all(list(programs), functions, **kwargs).program
