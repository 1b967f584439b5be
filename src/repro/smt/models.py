"""Witnesses: evaluating formulas under an interpretation, and model views.

The solver's primary contract is refutation (an ``unsat`` answer is a
proof); ``sat`` answers are used by the optimiser only as "no entailment".
A satisfiable check nevertheless leaves a *witness* behind at no extra
solving cost — the congruence closure and the Fourier–Motzkin trail of the
accepted theory round (:func:`repro.smt.combine.check_literals`) — and
:class:`repro.smt.solver.Solver` answers later queries from it.  This module
holds what reads a witness:

* :func:`holds` — truth of a formula under an interpretation, atom truths
  memoised per interpretation.  An interpretation is *total*: whatever it
  does not mention (a variable, a function at some arguments) reads as 0.
* :func:`lia_model`, :func:`literals_model`, :func:`formula_model` — thin
  views that run the one engine and present its witness as dictionaries,
  for diagnostics and tests.

Everything handed out is **verified** against what was asked; when rounding
or the non-convex corners defeat the construction, the views return ``None``
rather than a wrong model — "satisfiable, but no witness available".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from .combine import TheoryLiteral, Witness, WitnessKey, check_literals
from .lia import LiaTrail, LinCon, Var, lia_check
from .terms import (
    App,
    Eq,
    FAnd,
    FFalse,
    FNot,
    FOr,
    FTrue,
    Formula,
    Le,
    Lin,
    Num,
    Sym,
    Term,
    Token,
    _term_tokens,
    free_syms,
)

if TYPE_CHECKING:
    from .solver import Solver

__all__ = [
    "lia_model",
    "evaluate_lincon",
    "literals_model",
    "evaluate_term",
    "evaluate_formula",
    "formula_model",
    "holds",
    "interpretation",
]

Interpretation = Mapping[WitnessKey, int]
Tables = Mapping[str, Mapping[tuple[int, ...], int]]
Model = tuple[dict[str, int], dict[str, dict[tuple[int, ...], int]]]


def interpretation(witness: Witness) -> dict[WitnessKey, int]:
    """The lookup form of a flat ``(key, value, key, value, ...)`` witness."""

    return dict(zip(witness[::2], witness[1::2]))


def _value(t: Term, w: Interpretation) -> int:
    if isinstance(t, Sym):
        return w.get(t.name, 0)
    if isinstance(t, Lin):
        total = t.const
        for atom, coef in t.coeffs:
            total += coef * _value(atom, w)
        return total
    if isinstance(t, Num):
        return t.value
    if isinstance(t, App):
        return w.get((t.func, *[_value(a, w) for a in t.args]), 0)
    raise TypeError(f"not a term: {t!r}")


def holds(f: Formula, w: Interpretation, truths: dict[Formula, bool]) -> bool:
    """Whether ``f`` is true under ``w``; ``truths`` memoises the atoms of
    this one interpretation (successive queries share most of their Ψ)."""

    if isinstance(f, (Le, Eq)):
        known = truths.get(f)
        if known is None:
            value = _value(f.term, w)
            known = truths[f] = value <= 0 if isinstance(f, Le) else value == 0
        return known
    if isinstance(f, FAnd):
        return all(holds(g, w, truths) for g in f.args)
    if isinstance(f, FOr):
        return any(holds(g, w, truths) for g in f.args)
    if isinstance(f, FNot):
        return not holds(f.operand, w, truths)
    if isinstance(f, FTrue):
        return True
    if isinstance(f, FFalse):
        return False
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Dictionary views (diagnostics, tests)
# ---------------------------------------------------------------------------


def _merged(variables: Mapping[str, int], functions: Optional[Tables]) -> dict[WitnessKey, int]:
    w: dict[WitnessKey, int] = {name: value for name, value in variables.items()}
    for func, table in (functions or {}).items():
        for args, value in table.items():
            w[(func, *args)] = value
    return w


def evaluate_term(t: Term, variables: Mapping[str, int], functions: Optional[Tables] = None) -> int:
    """Evaluate a term under a model (missing entries default to 0)."""

    return _value(t, _merged(variables, functions))


def evaluate_formula(
    f: Formula, variables: Mapping[str, int], functions: Optional[Tables] = None
) -> bool:
    """Evaluate a formula under a model (missing entries default to 0)."""

    return holds(f, _merged(variables, functions), {})


def evaluate_lincon(con: LinCon, assignment: Mapping[Var, int]) -> int:
    """The value of the linear form under ``assignment`` (missing vars = 0)."""

    return con.const + sum(c * assignment.get(v, 0) for v, c in con.coeffs)


def lia_model(
    eqs: Iterable[LinCon], les: Iterable[LinCon], diseqs: Iterable[LinCon] = ()
) -> Optional[dict[Var, int]]:
    """A verified integer model of the constraint system, or None."""

    eqs, les, diseqs = list(eqs), list(les), list(diseqs)
    trail = LiaTrail()
    if lia_check(eqs, les, diseqs, trail) != "sat":
        return None
    values = trail.model()
    if values is None:
        return None
    for con in (*eqs, *les, *diseqs):
        for v, _c in con.coeffs:
            values.setdefault(v, 0)
    if (
        any(evaluate_lincon(eq, values) != 0 for eq in eqs)
        or any(evaluate_lincon(le, values) > 0 for le in les)
        or any(evaluate_lincon(ne, values) == 0 for ne in diseqs)
    ):
        return None
    return values


def _view(w: Interpretation, names: Iterable[str]) -> Model:
    """``(variable values, function tables)``; every name in ``names`` gets a
    row (0 when the witness left it out).  Function tables map
    ``func -> {arg tuple -> value}``; rows not forced by the constraints are
    absent (they read as 0)."""

    variables = {name: 0 for name in names}
    functions: dict[str, dict[tuple[int, ...], int]] = {}
    for key, value in w.items():
        if isinstance(key, str):
            variables[key] = value
        else:
            functions.setdefault(key[0], {})[key[1:]] = value
    return variables, functions


def literals_model(literals: list[TheoryLiteral]) -> Optional[Model]:
    """A verified model of a conjunction of theory literals, or None."""

    witness = check_literals(literals).witness
    if witness is None:
        return None
    w = interpretation(witness)
    tokens: set[Token] = set()
    for lit in literals:
        value = _value(lit.term, w)
        if (value != 0) if lit.kind == "eq" else (value > 0) if lit.kind == "le" else (value == 0):
            return None
        _term_tokens(lit.term, tokens)
    return _view(w, sorted(token for token in tokens if isinstance(token, str)))


def formula_model(formula: Formula, solver: Optional["Solver"] = None) -> Optional[Model]:
    """A verified model of ``formula``, or None.

    Runs the solver's DPLL(T) loop and verifies the *whole formula* under
    the witness of the accepted theory round.
    """

    if solver is None:
        from .solver import Solver

        solver = Solver()
    _status, witness = solver._check(formula)
    if witness is None:
        return None
    w = interpretation(witness)
    if not holds(formula, w, {}):
        return None  # satisfiable, but witness construction failed
    return _view(w, sorted(free_syms(formula)))
