"""Strongest postconditions as a symbolic store.

The consolidation calculus threads a context ``Ψ`` — "the strongest
post-condition of the code that comes before" the statements being merged
(Section 4).  It is kept the way symbolic execution keeps a state (King,
CACM 1976): a *store* maps each local to its value — a term over the
inputs, library-call applications and fresh symbols, or a formula for a
boolean local — beside a *path condition* ``pc`` that holds only branch
conditions and loop facts.  A local the store does not bind stands for its
own symbol ``v!name``.

* ``sp(x := e)`` binds ``x`` to ``e`` read through the store; ``pc`` is
  untouched, so a straight-line UDF leaves ``pc = true``.
* ``sp(S1 (+)e S2)`` runs both arms from the same store under ``e`` and
  ``¬e``; a local the arms leave with different values is bound to a fresh
  symbol, which each arm's disjunct ties to that arm's value.
* ``sp(while e do S)`` havocs — binds to fresh symbols — the locals the
  loop may write and conjoins ``¬e``: sound for the big-step semantics,
  which only relates terminating runs.
* ``sp(notify_i b)`` is the identity (the paper's footnote 4).

Soundness.  The formula the store stands for is
``Ψ ≡ ∃fresh. pc ∧ ⋀ v!x = store(x)``: the fresh symbols occur in no goal,
and every model of ``pc`` extends to a model of ``Ψ`` by giving each
``v!x`` the value of ``store(x)``.  So for a goal ``e`` over locals,
``Ψ ⊨ e`` iff ``pc ⊨ e[store]`` — ``e`` with each local replaced by its
value.  The calculus asks the solver the second question, and the
solver's contract (``entailed`` only from a valid derivation) is the same
for either.

Whenever an expression cannot be encoded into QF_UFLIA the engine degrades
gracefully: the assigned local is havocked (or the branch condition
dropped), which weakens the context — always sound, merely less precise.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from ..lang.ast import Assign, Expr, If, Notify, Seq, Skip, Stmt, While
from ..lang.functions import BOOL, INT, FunctionTable, Sort
from ..lang.visitors import TypeError_, assigned_vars, type_of
from ..smt.interface import EncodingError, Store, Value, encode_bool, encode_int, var_sym
from ..smt.terms import Formula, Num, Sym, Term, eq_f, fand, fiff, fnot, for_

__all__ = ["SpEngine"]


class SpEngine:
    """Computes strongest postconditions over ``(pc, store)``, tracking sorts.

    One engine instance is shared across a whole consolidation run so that
    fresh-name generation never collides and sort information accumulates
    as assignments are consumed.  Methods that take a ``store`` update it
    in place and return the path condition.
    """

    def __init__(self, functions: FunctionTable, sorts: dict[str, Sort] | None = None) -> None:
        self.functions = functions
        self.sorts: dict[str, Sort] = dict(sorts or {})
        self._fresh = itertools.count(1)

    # -- encoding helpers ----------------------------------------------------

    def encode_bool(self, e: Expr, store: Store | None = None) -> Formula | None:
        """Encode a boolean expression through ``store``, or None when
        outside the fragment."""

        try:
            return encode_bool(e, self.functions, self.sorts, store)
        except (EncodingError, TypeError_):
            return None

    def encode_int(self, e: Expr, store: Store | None = None) -> Term | None:
        try:
            return encode_int(e, self.functions, self.sorts, store)
        except (EncodingError, TypeError_):
            return None

    def sort_of(self, e: Expr) -> Sort:
        return type_of(e, self.functions, self.sorts)

    def assume(
        self, psi: Formula, e: Expr, store: Store | None = None, *, negate: bool = False
    ) -> Formula:
        """``pc ∧ e`` (or ``pc ∧ ¬e``); unencodable conditions are dropped."""

        enc = self.encode_bool(e, store)
        if enc is None:
            return psi
        return fand(psi, fnot(enc) if negate else enc)

    # -- postconditions --------------------------------------------------------

    def fresh_sym(self, name: str) -> Sym:
        return Sym(f"v!{name}#{next(self._fresh)}")

    def _fresh_value(self, name: str) -> Value:
        fresh = self.fresh_sym(name)
        return eq_f(fresh, Num(1)) if self.sorts.get(name) == BOOL else fresh

    def havoc(self, store: Store, names: Iterable[str]) -> None:
        """Forget the values of the given locals: bind each to a fresh symbol."""

        for name in sorted(names):
            store[name] = self._fresh_value(name)

    def assign(self, store: Store, var: str, expr: Expr) -> None:
        """``sp(var := expr)``: bind ``var`` to ``expr``'s value."""

        try:
            sort = self.sort_of(expr)
        except TypeError_:
            sort = INT
        value: Value | None
        value = self.encode_bool(expr, store) if sort == BOOL else self.encode_int(expr, store)
        self.sorts[var] = sort
        store[var] = self._fresh_value(var) if value is None else value

    def post(self, psi: Formula, store: Store, s: Stmt) -> Formula:
        """``sp((psi, store), S)`` for an arbitrary statement."""

        if isinstance(s, (Skip, Notify)):
            return psi
        if isinstance(s, Assign):
            self.assign(store, s.var, s.expr)
            return psi
        if isinstance(s, Seq):
            for sub in s.stmts:
                psi = self.post(psi, store, sub)
            return psi
        if isinstance(s, If):
            enc = self.encode_bool(s.cond, store)
            if enc is None:
                # Unknown branch condition: havoc everything either side writes.
                self.havoc(store, assigned_vars(s))
                return psi
            then_store, else_store = dict(store), dict(store)
            then_pc = self.post(enc, then_store, s.then)
            else_pc = self.post(fnot(enc), else_store, s.orelse)
            for name in sorted(assigned_vars(s)):
                a, b = self._value(then_store, name), self._value(else_store, name)
                if a == b:
                    store[name] = a
                    continue
                joined = store[name] = self._fresh_value(name)
                then_pc = fand(then_pc, _equal(joined, a))
                else_pc = fand(else_pc, _equal(joined, b))
            return fand(psi, for_(then_pc, else_pc))
        if isinstance(s, While):
            self.havoc(store, assigned_vars(s.body))
            return self.assume(psi, s.cond, store, negate=True)
        raise TypeError(f"not a statement: {s!r}")

    def _value(self, store: Store, name: str) -> Value:
        """What ``name`` encodes as under ``store``."""

        value = store.get(name)
        if value is not None:
            return value
        own = var_sym(name)
        return eq_f(own, Num(1)) if self.sorts.get(name) == BOOL else own


def _equal(a: Value, b: Value) -> Formula:
    """``a = b`` for two values of one local (``iff`` when either is boolean)."""

    if isinstance(a, Term) and isinstance(b, Term):
        return eq_f(a, b)
    fa, fb = (v if isinstance(v, Formula) else eq_f(v, Num(1)) for v in (a, b))
    return fiff(fa, fb)
