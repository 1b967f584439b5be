"""Strongest postconditions over SMT contexts.

The consolidation calculus threads a context ``Ψ`` — "the strongest
post-condition of the code that comes before" the statements being merged
(Section 4).  This module computes ``sp(Ψ, S)`` as an SMT formula:

* ``sp(Ψ, x := e)`` renames the old value of ``x`` to a fresh symbol inside
  ``Ψ`` (and inside ``e``), then conjoins the defining equality — the
  classic existential-free SSA form of the strongest postcondition.
* ``sp(Ψ, S1 (+)e S2)`` is the disjunction of the branch postconditions
  under ``Ψ ∧ e`` and ``Ψ ∧ ¬e``.
* ``sp(Ψ, while e do S)`` havocs the variables the loop may write and
  conjoins ``¬e`` — sound for the big-step semantics, which only relates
  terminating runs.
* ``sp(Ψ, notify_i b) = Ψ`` (the paper's footnote 4).

Whenever an expression cannot be encoded into QF_UFLIA the engine degrades
gracefully: the assigned variable is havocked (or the branch condition
dropped), which weakens the context — always sound, merely less precise.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet

from ..lang.ast import Assign, Expr, If, Notify, Seq, Skip, Stmt, While
from ..lang.functions import BOOL, FunctionTable, Sort
from ..lang.visitors import TypeError_, assigned_vars, type_of
from ..smt.interface import EncodingError, encode_bool, encode_int, var_sym
from ..smt.terms import (
    Formula,
    Num,
    Sym,
    Term,
    eq_f,
    fand,
    fiff,
    fnot,
    for_,
    rename_syms,
    rename_syms_term,
)

__all__ = ["SpEngine"]


class SpEngine:
    """Computes strongest postconditions, tracking variable sorts.

    One engine instance is shared across a whole consolidation run so that
    fresh-name generation never collides and sort information accumulates
    as assignments are consumed.
    """

    def __init__(self, functions: FunctionTable, sorts: dict[str, Sort] | None = None) -> None:
        self.functions = functions
        self.sorts: dict[str, Sort] = dict(sorts or {})
        self._fresh = itertools.count(1)

    # -- encoding helpers ----------------------------------------------------

    def encode_bool(self, e: Expr) -> Formula | None:
        """Encode a boolean expression, or None when outside the fragment."""

        try:
            return encode_bool(e, self.functions, self.sorts)
        except (EncodingError, TypeError_):
            return None

    def encode_int(self, e: Expr) -> Term | None:
        try:
            return encode_int(e, self.functions, self.sorts)
        except (EncodingError, TypeError_):
            return None

    def sort_of(self, e: Expr) -> Sort:
        return type_of(e, self.functions, self.sorts)

    def assume(self, psi: Formula, e: Expr, *, negate: bool = False) -> Formula:
        """``Ψ ∧ e`` (or ``Ψ ∧ ¬e``); unencodable conditions are dropped."""

        enc = self.encode_bool(e)
        if enc is None:
            return psi
        return fand(psi, fnot(enc) if negate else enc)

    # -- postconditions --------------------------------------------------------

    def fresh_sym(self, name: str) -> Sym:
        return Sym(f"v!{name}#{next(self._fresh)}")

    def havoc(self, psi: Formula, names: AbstractSet[str]) -> Formula:
        """Forget everything ``psi`` says about the given locals."""

        if not names:
            return psi
        mapping: dict[str, Term] = {
            var_sym(n).name: self.fresh_sym(n) for n in names
        }
        return rename_syms(psi, mapping)

    def assign(self, psi: Formula, var: str, expr: Expr) -> Formula:
        """``sp(Ψ, var := expr)``."""

        try:
            sort = self.sort_of(expr)
        except TypeError_:
            sort = "int"
        fresh = self.fresh_sym(var)
        renaming: dict[str, Term] = {var_sym(var).name: fresh}

        # The defining fact of the new value, over the *old* value renamed;
        # None havocs: nothing is known about the new value.
        defining: Formula | None = None
        if sort == BOOL:
            cond = self.encode_bool(expr)
            if cond is not None:
                defining = fiff(eq_f(var_sym(var), Num(1)), rename_syms(cond, renaming))
        else:
            value = self.encode_int(expr)
            if value is not None:
                defining = eq_f(var_sym(var), rename_syms_term(value, renaming))
        self.sorts[var] = sort
        # rename_syms rebuilds only the conjuncts that mention ``var``; the
        # rest of Ψ comes back by identity.
        psi2 = rename_syms(psi, renaming)
        return psi2 if defining is None else fand(psi2, defining)

    def post(self, psi: Formula, s: Stmt) -> Formula:
        """``sp(Ψ, S)`` for an arbitrary statement."""

        if isinstance(s, Skip):
            return psi
        if isinstance(s, Notify):
            return psi
        if isinstance(s, Assign):
            return self.assign(psi, s.var, s.expr)
        if isinstance(s, Seq):
            for sub in s.stmts:
                psi = self.post(psi, sub)
            return psi
        if isinstance(s, If):
            enc = self.encode_bool(s.cond)
            if enc is None:
                # Unknown branch condition: havoc everything either side writes.
                return self.havoc(psi, assigned_vars(s))
            p_then = self.post(fand(psi, enc), s.then)
            p_else = self.post(fand(psi, fnot(enc)), s.orelse)
            return for_(p_then, p_else)
        if isinstance(s, While):
            havocked = self.havoc(psi, assigned_vars(s.body))
            enc = self.encode_bool(s.cond)
            if enc is None:
                return havocked
            return fand(havocked, fnot(enc))
        raise TypeError(f"not a statement: {s!r}")
