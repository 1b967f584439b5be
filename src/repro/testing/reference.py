"""Reference implementations that tests compare the optimised code against.

:func:`rename_syms_full_walk` is the substitution :mod:`repro.smt.terms`
used before renaming became local: it rebuilds and re-canonicalises *every*
node of the formula, touched or not.  It is O(|Ψ|) per call and must not be
used by the product; it exists so that a property test can require the
local :func:`repro.smt.terms.rename_syms` to return an equal formula.
"""

from __future__ import annotations

from typing import Mapping

from ..smt.terms import (
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
    eq_f,
    fand,
    fnot,
    for_,
    le_f,
    t_add,
    t_scale,
)

__all__ = ["rename_syms_full_walk", "rename_syms_term_full_walk"]


def rename_syms_term_full_walk(t: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(t, Num):
        return t
    if isinstance(t, Sym):
        return mapping.get(t.name, t)
    if isinstance(t, App):
        return App(t.func, tuple(rename_syms_term_full_walk(a, mapping) for a in t.args))
    if isinstance(t, Lin):
        result: Term = Num(t.const)
        for atom, coef in t.coeffs:
            result = t_add(result, t_scale(coef, rename_syms_term_full_walk(atom, mapping)))
        return result
    raise TypeError(f"not a term: {t!r}")


def rename_syms_full_walk(f: Formula, mapping: Mapping[str, Term]) -> Formula:
    if isinstance(f, (FTrue, FFalse)):
        return f
    if isinstance(f, Le):
        return le_f(rename_syms_term_full_walk(f.term, mapping), Num(0))
    if isinstance(f, Eq):
        return eq_f(rename_syms_term_full_walk(f.term, mapping), Num(0))
    if isinstance(f, FNot):
        return fnot(rename_syms_full_walk(f.operand, mapping))
    if isinstance(f, FAnd):
        return fand(*(rename_syms_full_walk(g, mapping) for g in f.args))
    if isinstance(f, FOr):
        return for_(*(rename_syms_full_walk(g, mapping) for g in f.args))
    raise TypeError(f"not a formula: {f!r}")
