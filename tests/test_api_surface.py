"""The stable facade surface, pinned.

``repro.api`` is the contract both the CLI and the service build on;
these golden tests make any signature change an explicit, reviewed act —
the diff shows exactly which verb moved.  The 2.0-removal tests pin that
every pre-config keyword argument is gone (a ``TypeError``, not a silent
shim), the 5.0.0-removal tests that the dropped ``ExecutionConfig``
fields and the thread executor are gone, the 6.0.0-removal tests that
the profiler is no longer threaded through a run, the 7.0.0-removal
tests that the prefilter is gone, the 8.0.0-removal tests that the
process-pool executor is gone, the 9.0.0-removal tests that the service's
constant knobs and ``PatchError`` are gone, the 10.0.0-removal tests that
each decision has one knob (one-valued knobs are constants, a calibration
model is the planner choice), and the config validation errors (they must
enumerate the valid values).
"""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
import repro.api as api
import repro.config
import repro.naiad.dataflow
from repro.config import ExecutionConfig, ServiceConfig
from repro.consolidation import (
    ConsolidationOptions,
    ConsolidationReport,
    add_query,
    consolidate_all,
    rebuild,
    remove_query,
)
from repro.experiments import (
    run_experiment,
    run_figure9,
    run_figure10,
    run_latency_experiment,
)
from repro.lang import FunctionTable, parse_program
from repro.lang.compile import make_runner
from repro.lang.vectorize import vectorize_cached
from repro.naiad import (
    Dataflow,
    Query,
    Where,
    WhereConsolidated,
    WhereMany,
    from_collection,
    run_where_consolidated,
    run_where_many,
)
from repro.provenance import explain_batch
from repro.smt.solver import Solver

# ---------------------------------------------------------------------------
# the facade: frozen __all__ and golden signatures


GOLDEN_SIGNATURES = {
    "consolidate": (
        "(programs: 'Sequence[Program]', functions: 'Optional[FunctionTable]'"
        " = None, *, options: 'Optional[ConsolidationOptions]' = None, "
        "config: 'Optional[ExecutionConfig]' = None) -> 'ConsolidationReport'"
    ),
    "explain": (
        "(target: 'Union[QueryRegistry, Sequence[Program]]', functions: "
        "'Optional[FunctionTable]' = None, *, options: "
        "'Optional[ConsolidationOptions]' = None, config: "
        "'Optional[ExecutionConfig]' = None) -> 'dict'"
    ),
    "register": (
        "(registry: 'QueryRegistry', query: 'Union[Program, str]', *, "
        "tenant: 'str' = 'default') -> 'RegisteredQuery'"
    ),
    "run": (
        "(rows: 'Sequence[Any]', programs: 'Sequence[Program]', functions: "
        "'Optional[FunctionTable]' = None, *, consolidated: 'bool' = True, "
        "options: 'Optional[ConsolidationOptions]' = None, config: "
        "'Optional[ExecutionConfig]' = None) -> 'RunResult'"
    ),
    "unregister": "(registry: 'QueryRegistry', pid: 'str') -> 'None'",
}


def test_facade_all_is_frozen_tuple():
    assert isinstance(api.__all__, tuple)
    assert api.__all__ == ("consolidate", "explain", "register", "run", "unregister")


def test_facade_signatures_are_golden():
    for name, expected in GOLDEN_SIGNATURES.items():
        actual = str(inspect.signature(getattr(api, name)))
        assert actual == expected, f"repro.api.{name} signature drifted:\n{actual}"


def test_facade_covers_all_verbs_and_nothing_else():
    assert set(GOLDEN_SIGNATURES) == set(api.__all__)


def test_facade_exported_from_package_root():
    assert "api" in repro.__all__
    assert repro.api is api


def test_every_facade_verb_has_type_hints():
    for name in api.__all__:
        signature = inspect.signature(getattr(api, name))
        assert signature.return_annotation is not inspect.Signature.empty
        for parameter in signature.parameters.values():
            assert parameter.annotation is not inspect.Parameter.empty, (
                f"repro.api.{name} parameter {parameter.name} lost its hint"
            )


# ---------------------------------------------------------------------------
# the 2.0 removals: ExecutionConfig is the only way to set a run-time knob

_RUN_KNOBS = ("cost_model", "workers", "io_cost_per_record", "backend")
REMOVED_KEYWORDS = [
    (Query.where, ("cost_model", "backend")),
    (Query.where_many, ("cost_model", "backend")),
    (Query.where_consolidated, ("cost_model", "backend", "prefilter")),
    (Query.run, ("workers",)),
    (from_collection, ("io_cost_per_record", "overhead_per_operator")),
    (run_where_many, _RUN_KNOBS),
    (run_where_consolidated, _RUN_KNOBS),
    (run_experiment, _RUN_KNOBS),
    (run_figure9, ("workers", "backend")),
    (run_figure10, ("workers", "backend")),
    (run_latency_experiment, ("cost_model", "backend")),
    # 10.0.0: one knob per decision.
    (ExecutionConfig, ("io_cost_per_record", "overhead_per_operator", "planner")),
    (ServiceConfig, ("event_log", "record_derivations")),
    (ConsolidationOptions, ("max_embed_size",)),
    (Solver, ("lemma_budget", "cache_size")),
    (Dataflow, ("io_cost_per_record", "overhead_per_operator")),
    (explain_batch, ("loose_threshold", "planner")),
    (add_query, ("record",)),
    (remove_query, ("record",)),
    (rebuild, ("provenance",)),
    # 7.0.0: the prefilter is gone.
    (ExecutionConfig, ("prefilter",)),
    (Where, ("prefilter",)),
    (WhereMany, ("prefilter",)),
    (WhereConsolidated, ("prefilter",)),
    (
        consolidate_all,
        (
            "parallel",
            # PR 14: every ExecutionConfig field consolidate_all used to
            # take again as a keyword.
            "executor",
            "max_workers",
            "telemetry",
            "provenance",
            "prefilter",
            "planner",
            "calibration",
            "smt_budget_seconds",
            "cost_model",
        ),
    ),
]


@pytest.mark.parametrize(
    "function, keyword",
    [
        pytest.param(function, keyword, id=f"{function.__qualname__}-{keyword}")
        for function, keywords in REMOVED_KEYWORDS
        for keyword in keywords
    ],
)
def test_removed_legacy_keyword_raises_type_error(function, keyword):
    # Binding rejects the unknown keyword before anything runs, so no real
    # arguments are needed.
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        function(**{keyword: None})


def test_consolidate_all_signature_is_config_only():
    assert str(inspect.signature(consolidate_all)).split(" -> ")[0] == (
        "(programs: 'list[Program]', functions: 'FunctionTable', *, "
        "options: 'ConsolidationOptions | None' = None, order: 'str' = 'clustered', "
        "priority: 'Sequence[str] | None' = None, keep_tree: 'bool' = False, "
        "config: 'ExecutionConfig | None' = None)"
    )
    # cost_model used to be the third positional parameter.
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3"):
        consolidate_all([], None, None)


def test_removed_shim_names_are_gone():
    for name in ("resolve_config", "deprecated_kwarg", "LEGACY_KWARG_REMOVAL"):
        assert not hasattr(repro.config, name)
    assert not hasattr(repro.naiad, "JobMetrics")
    assert not hasattr(repro.naiad.dataflow, "JobMetrics")
    assert "parallel" not in ConsolidationReport.__dataclass_fields__


# ---------------------------------------------------------------------------
# config validation errors enumerate the valid values


def test_execution_config_backend_error_enumerates_choices():
    with pytest.raises(ValueError, match="choose from"):
        ExecutionConfig(backend="gpu")


def test_execution_config_worker_errors_state_the_valid_range():
    with pytest.raises(ValueError, match=r"workers must be an integer >= 1, got 0"):
        ExecutionConfig(workers=0)


# ---------------------------------------------------------------------------
# the 5.0.0 removals: four ExecutionConfig fields and the thread executor;
# the 8.0.0 removal: the executor field itself


@pytest.mark.parametrize(
    "keyword", ["max_workers", "smt_budget_seconds", "functions", "sink", "executor"]
)
def test_removed_execution_config_field_raises_type_error(keyword):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        ExecutionConfig(**{keyword: None})


def test_execution_config_has_six_fields_and_no_removed_helpers():
    assert len(dataclasses.fields(ExecutionConfig)) == 6
    for name in ("resolve_functions", "flush_telemetry"):
        assert not hasattr(ExecutionConfig, name)


# ---------------------------------------------------------------------------
# the 6.0.0 removals: the profiler drives the ladder from outside a run


_UDF = "program p(r) { notify p @r < 5; }"


@pytest.mark.parametrize(
    "entry",
    [
        lambda profiler: ExecutionConfig(profiler=profiler),
        lambda profiler: make_runner(parse_program(_UDF), FunctionTable(), profiler=profiler),
        lambda profiler: vectorize_cached(parse_program(_UDF), FunctionTable(), profiler=profiler),
        lambda profiler: WhereMany([parse_program(_UDF)], FunctionTable(), profiler=profiler),
    ],
    ids=["ExecutionConfig", "make_runner", "vectorize_cached", "WhereMany"],
)
def test_profiler_keyword_is_gone(entry):
    with pytest.raises(TypeError, match="'profiler'"):
        entry(object())


def test_profiler_null_twin_is_gone():
    import repro.profiling

    for name in ("NullProfiler", "NULL_PROFILER", "AnyProfiler"):
        assert not hasattr(repro.profiling, name)
    for name in ("wrap_runner", "record_batch", "units_for"):
        assert not hasattr(repro.profiling.Profiler, name)


def test_thread_executor_is_gone():
    # 8.0.0 took the process executor with it: no executor is left to name.
    assert not [name for name in dir(repro.config) if name.lower().startswith("executor")]
    with pytest.raises(TypeError, match="unexpected keyword argument 'executor'"):
        ExecutionConfig(executor="thread")


def test_pool_report_fields_are_gone():
    from repro.experiments import ExperimentResult

    for name in ("executor", "max_workers"):
        assert name not in ConsolidationReport.__dataclass_fields__
    assert "executor" not in ExperimentResult.__dataclass_fields__


def test_simplify_loop_bodies_option_is_gone():
    from repro.consolidation import ConsolidationOptions

    with pytest.raises(TypeError, match="unexpected keyword argument 'simplify_loop_bodies'"):
        ConsolidationOptions(simplify_loop_bodies=False)
    # One loop-invariant engine: Karr's affine domain and its selector are gone.
    with pytest.raises(TypeError, match="unexpected keyword argument 'invariant_engine'"):
        ConsolidationOptions(invariant_engine="probe")
    with pytest.raises(ModuleNotFoundError):
        import repro.analysis.affine  # noqa: F401
    from repro.analysis.invariants import loop_invariant

    assert "mode" not in inspect.signature(loop_invariant).parameters


def test_prefilter_report_fields_are_gone():
    for name in ("prefilter", "prefilter_seconds"):
        assert name not in ConsolidationReport.__dataclass_fields__


def test_consolidation_leaves_no_prefilter_trace():
    # No φ derivation, no `consolidate.prefilter` span, no `prefilter_*`
    # counter: a traced, provenance-recording consolidation shows none.
    from repro.datasets import generate_weather
    from repro.queries import DOMAIN_QUERIES
    from repro.telemetry import Telemetry

    dataset = generate_weather(cities=10)
    batch = DOMAIN_QUERIES["weather"].make_batch(dataset, "Q1", n=3, seed=2)
    telemetry = Telemetry.capture(trace=True)
    config = ExecutionConfig(provenance=True, telemetry=telemetry)
    report = consolidate_all(batch, dataset.functions, config=config)
    assert report.derivations
    assert not any("φ" in d.merged for d in report.derivations)

    def names(spans):
        for span in spans:
            yield span["name"]
            yield from names(span.get("children", ()))

    spans = set(names(telemetry.tracer.to_dicts()))
    assert "consolidate" in {name.split(".")[0] for name in spans}
    assert not any("prefilter" in name for name in spans)
    assert len(telemetry.metrics) > 0
    assert not any("prefilter" in metric.name for metric in telemetry.metrics)


def test_service_config_validation_errors_enumerate_values():
    with pytest.raises(ValueError, match=r"0\.\.65535"):
        ServiceConfig(port=70000)


# ---------------------------------------------------------------------------
# the 9.0.0 removals: the registry's one-valued knobs and PatchError


@pytest.mark.parametrize("keyword", ["rebalance_factor", "plan_cache_size"])
def test_removed_service_config_field_raises_type_error(keyword):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        ServiceConfig(**{keyword: None})


def test_service_config_has_four_fields_and_the_registry_its_constants():
    from repro.service import registry

    assert len(dataclasses.fields(ServiceConfig)) == 4
    assert (registry.REBALANCE_FACTOR, registry.PLAN_CACHE_SIZE) == (2.0, 128)


def test_patch_error_is_gone():
    import repro.consolidation
    import repro.consolidation.incremental as incremental

    assert not hasattr(repro.consolidation, "PatchError")
    assert not hasattr(incremental, "PatchError")
    for name in ("_unchain", "_rechain", "_chain"):
        assert not hasattr(incremental, name)


# ---------------------------------------------------------------------------
# the 10.0.0 removals: one knob per decision


def test_one_valued_knobs_are_constants():
    from repro.consolidation import algorithm
    from repro.smt import solver

    assert len(dataclasses.fields(ConsolidationOptions)) == 4
    assert list(inspect.signature(Solver).parameters) == ["telemetry"]
    assert list(inspect.signature(Dataflow).parameters) == []
    assert (
        repro.naiad.dataflow.IO_COST_PER_RECORD,
        repro.naiad.dataflow.OVERHEAD_PER_OPERATOR,
    ) == (25, 2)
    assert algorithm.MAX_EMBED_SIZE == 160
    assert (solver.LEMMA_BUDGET, solver.CACHE_SIZE) == (400, 100_000)
    assert not hasattr(repro.config, "PLANNERS")
    assert not hasattr(repro.naiad.dataflow.RunMetrics, "udf_makespan")


def test_service_config_is_frozen_and_evolvable():
    config = ServiceConfig()
    with pytest.raises(Exception):
        config.port = 1234  # type: ignore[misc]
    assert config.evolve(port=0).port == 0
    assert config.port == 8765


# ---------------------------------------------------------------------------
# one version


def test_package_version_matches_pyproject():
    """``repro.__version__`` and ``pyproject.toml`` announce one release."""

    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert declared is not None
    assert repro.__version__ == declared.group(1)
