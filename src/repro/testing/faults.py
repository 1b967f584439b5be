"""Context-manager fault injection for the three trusted subsystems.

Each production module exposes one module-global ``FAULT_HOOK`` seam
(:mod:`repro.smt.solver`, :mod:`repro.lang.compile`,
:mod:`repro.consolidation.divide_conquer`), called as
``hook(site, payload)`` and costing a single attribute read when unset.
The context managers here install a hook for the duration of a ``with``
block and always restore the previous value, so faults cannot leak across
tests.

What each fault must *prove* when used in a test:

* ``smt_unknown`` / ``smt_crash`` — the consolidation driver keeps going:
  unknown verdicts merely skip optimisations; crashes degrade single pairs
  to the sequential baseline (``ConsolidationReport.skipped_pairs``);
* ``compile_cache_miss`` / ``compile_fallback`` — ``make_runner`` still
  hands back a working runner (recompilation, or the interpreter);
* ``miscompile`` — the *differential oracle* catches the corrupted
  backend; this is the harness testing itself;
* ``consolidation_pair_crash`` — a mid-batch pair-merge failure degrades,
  never raises.

Compilation faults clear the compile cache on entry *and* exit: entry so
the fault actually sees compilations (not stale cache hits), exit so a
corrupted program cannot outlive its fault window.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..consolidation import divide_conquer as _dc
from ..lang import compile as _compile
from ..lang import vectorize as _vectorize
from ..smt import solver as _solver

__all__ = [
    "fault_hook",
    "smt_unknown",
    "smt_crash",
    "compile_cache_miss",
    "compile_fallback",
    "miscompile",
    "consolidation_pair_crash",
    "vectorize_crash",
    "vectorize_mismask",
]


@contextmanager
def fault_hook(module, hook):
    """Install ``hook`` as ``module.FAULT_HOOK`` for the block's duration."""

    previous = module.FAULT_HOOK
    module.FAULT_HOOK = hook
    try:
        yield hook
    finally:
        module.FAULT_HOOK = previous


def _after_counter(after: int, effect):
    """A hook that lets ``after`` calls through, then applies ``effect``."""

    remaining = [after]

    def hook(site, payload):
        if remaining[0] > 0:
            remaining[0] -= 1
            return None
        return effect(site, payload)

    return hook


@contextmanager
def smt_unknown(after: int = 0):
    """Force every solver check past the first ``after`` to return 'unknown'.

    Models budget exhaustion mid-batch: the optimiser must skip
    opportunities (fewer merges, larger programs) but stay sound.  Note the
    forced verdicts are memoised like real ones, so a solver created inside
    the window keeps degrading after it — use fresh solvers per batch, as
    ``consolidate_all`` does.
    """

    with fault_hook(
        _solver, _after_counter(after, lambda site, payload: "unknown")
    ) as hook:
        yield hook


@contextmanager
def smt_crash(after: int = 0, exc: type[Exception] = RuntimeError):
    """Make solver checks raise — a solver bug escaping as an exception."""

    def effect(site, payload):
        raise exc("injected SMT solver crash")

    with fault_hook(_solver, _after_counter(after, effect)) as hook:
        yield hook


@contextmanager
def compile_cache_miss():
    """Force every ``compile_cached`` lookup to miss (recompile each time)."""

    def hook(site, payload):
        return True if site == "compile.cache_lookup" else None

    _compile.clear_compile_cache()
    try:
        with fault_hook(_compile, hook) as h:
            yield h
    finally:
        _compile.clear_compile_cache()


@contextmanager
def compile_fallback():
    """Make every compilation fail, forcing the interpreter fallback path."""

    def hook(site, payload):
        if site == "compile.translate":
            raise _compile.CompileError("injected translation failure")
        return None

    _compile.clear_compile_cache()
    try:
        with fault_hook(_compile, hook) as h:
            yield h
    finally:
        _compile.clear_compile_cache()


def _flip_first_notification(compiled):
    """The default miscompile: negate the first notification's value."""

    import dataclasses

    inner = compiled._fn

    def corrupted(args, budget):
        env, notifications, cost, notification_costs = inner(args, budget)
        for pid in sorted(notifications):
            value = notifications[pid]
            if isinstance(value, bool):
                notifications[pid] = not value
                break
        return env, notifications, cost, notification_costs

    return dataclasses.replace(compiled, _fn=corrupted)


@contextmanager
def miscompile(transform=None):
    """Deliberately corrupt every compiled program (default: flip a notify).

    This is the harness testing *itself*: with this fault active the
    differential oracle battery must report backend discrepancies — a
    silent pass would mean the oracle cannot catch real miscompiles.
    """

    transform = transform or _flip_first_notification

    def hook(site, payload):
        return transform if site == "compile.finish" else None

    _compile.clear_compile_cache()
    try:
        with fault_hook(_compile, hook) as h:
            yield h
    finally:
        _compile.clear_compile_cache()


@contextmanager
def consolidation_pair_crash(after: int = 0, exc: type[Exception] = RuntimeError):
    """Make pair merges raise after the first ``after`` pairs."""

    def effect(site, payload):
        if site == "consolidate.pair":
            raise exc("injected pair-merge crash")
        return None

    with fault_hook(_dc, _after_counter(after, effect)) as hook:
        yield hook


@contextmanager
def vectorize_crash():
    """Make every kernel translation crash: batches must degrade per-row.

    The vectorized backend's contract is that translation failure is a
    *recorded degradation*, never an error — every batch runs through the
    compiled closures instead, producing identical results.
    """

    def hook(site, payload):
        if site == "vectorize.translate":
            raise RuntimeError("injected kernel-translation crash")
        return None

    _vectorize.clear_vectorize_cache()
    try:
        with fault_hook(_vectorize, hook) as h:
            yield h
    finally:
        _vectorize.clear_vectorize_cache()


def _mismask_first_branch(vectorized):
    """The default kernel corruption: complement the first pid's hit list
    (within the rows that broadcast on it) in everything the kernel returns."""

    inner = vectorized.plan
    if inner is None:
        return vectorized

    def corrupted(n, budget, *columns):
        costs, hits, partial = inner(n, budget, *columns)
        if hits:
            first = min(hits)
            present = partial.get(first, [True] * n)
            was = set(hits[first])
            hits[first] = [i for i in range(n) if present[i] and i not in was]
        return costs, hits, partial

    vectorized.plan = corrupted
    return vectorized


@contextmanager
def vectorize_mismask(transform=None):
    """Deliberately corrupt every batch kernel (default: flip a pid's values).

    Like :func:`miscompile`, this is the harness testing itself: the
    three-way differential oracle must report ``vectorized`` discrepancies
    while this fault is active — a silent pass would mean a wrong kernel
    could ship undetected.  The cache is cleared on entry *and* exit so a
    corrupted kernel cannot outlive its fault window.
    """

    transform = transform or _mismask_first_branch

    def hook(site, payload):
        return transform if site == "vectorize.finish" else None

    _vectorize.clear_vectorize_cache()
    try:
        with fault_hook(_vectorize, hook) as h:
            yield h
    finally:
        _vectorize.clear_vectorize_cache()
