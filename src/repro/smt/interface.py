"""Bridge between the IR (:mod:`repro.lang.ast`) and SMT terms/formulas.

Arithmetic IR expressions become linear terms; library calls become
uninterpreted applications; the comparison and boolean structure maps
directly.  Three encoding conventions:

* **Name spaces.**  Arguments encode as ``Sym("a!name")`` and locals as
  ``Sym("v!name")`` so that an argument and a local with the same surface
  name never collide.
* **Stores.**  Given a *store* (local name → its symbolic value, see
  :mod:`repro.analysis.sp`) a local encodes as the value the store binds it
  to; a local the store does not bind encodes as its own symbol.  Fresh
  values bound by a havoc are ``Sym("v!name#k")``.
* **Strings** are interned to integer codes (process-global registry).
  Distinct strings get distinct codes, so string equality/disequality is
  decided by plain integer reasoning.  Well-typedness of the IR (checked by
  :func:`repro.lang.visitors.check_program`) guarantees a string-sorted
  expression is never compared against a program integer, so the codes
  cannot be confused with program literals.
* **Booleans in integer positions.**  A boolean-returning library call is
  encoded as the atom ``f(..) = 1``.  A boolean local the store binds is its
  formula; an unbound one (or one bound to a term) is the atom ``x = 1``.

Encoding failures (e.g. a call with a boolean argument) raise
:class:`EncodingError`; callers treat that as "unknown" and simply skip the
optimisation opportunity, preserving soundness.
"""

from __future__ import annotations

from functools import lru_cache

from ..lang.ast import (
    Arg,
    BinOp,
    BoolConst,
    BoolOp,
    Call,
    Cmp,
    Expr,
    IntConst,
    Not,
    StrConst,
    Var,
)
from ..lang.functions import BOOL, FunctionTable, INT, STR, Sort
from ..lang.visitors import type_of
from typing import Union

from .terms import (
    App,
    FALSE_F,
    Formula,
    Num,
    Sym,
    TRUE_F,
    Term,
    eq_f,
    fand,
    fnot,
    for_,
    le_f,
    lt_f,
    t_add,
    t_mul,
    t_sub,
)

__all__ = [
    "EncodingError",
    "intern_string",
    "interned_strings",
    "arg_sym",
    "var_sym",
    "encode_int",
    "encode_bool",
    "encode_expr",
    "Store",
    "Value",
]

# A local's symbolic value: a term, or a formula for a boolean local; a
# store maps locals to their values (see :mod:`repro.analysis.sp`).
Value = Union[Term, Formula]
Store = dict[str, Value]


class EncodingError(Exception):
    """The expression falls outside the encodable fragment."""


_STRING_CODES: dict[str, int] = {}


def intern_string(s: str) -> int:
    """A stable integer code for ``s`` (distinct strings, distinct codes)."""

    code = _STRING_CODES.get(s)
    if code is None:
        code = len(_STRING_CODES)
        _STRING_CODES[s] = code
    return code


def interned_strings() -> dict[str, int]:
    """A copy of the current interning table (for debugging/reporting)."""

    return dict(_STRING_CODES)


# Every encode of an expression asks for the symbols of its variables again;
# handing back the same node shares its cached hash and sort key, and keeps
# the theory memo (whose keys pin the terms of their literals) from holding
# 3.4 equal ``Sym`` objects per name.  Bounded: names are recent.
@lru_cache(maxsize=4096)
def arg_sym(name: str) -> Sym:
    return Sym(f"a!{name}")


@lru_cache(maxsize=4096)
def var_sym(name: str) -> Sym:
    return Sym(f"v!{name}")


def _sort_of(
    e: Expr, functions: FunctionTable | None, sorts: dict[str, Sort] | None
) -> Sort:
    return type_of(e, functions, sorts)


def encode_int(
    e: Expr,
    functions: FunctionTable | None = None,
    sorts: dict[str, Sort] | None = None,
    store: Store | None = None,
) -> Term:
    """Encode an integer- or string-sorted expression as a term."""

    if isinstance(e, IntConst):
        return Num(e.value)
    if isinstance(e, StrConst):
        return Num(intern_string(e.value))
    if isinstance(e, Arg):
        return arg_sym(e.name)
    if isinstance(e, Var):
        value = store.get(e.name) if store else None
        if value is None:
            return var_sym(e.name)
        if isinstance(value, Formula):
            raise EncodingError(f"boolean local {e.name} in an integer position")
        return value
    if isinstance(e, Call):
        encoded: list[Term] = []
        for a in e.args:
            if _sort_of(a, functions, sorts) == BOOL:
                raise EncodingError(f"boolean argument in call {e}")
            encoded.append(encode_int(a, functions, sorts, store))
        return App(e.func, tuple(encoded))
    if isinstance(e, BinOp):
        left = encode_int(e.left, functions, sorts, store)
        right = encode_int(e.right, functions, sorts, store)
        if e.op == "+":
            return t_add(left, right)
        if e.op == "-":
            return t_sub(left, right)
        return t_mul(left, right)
    raise EncodingError(f"not an integer expression: {e}")


def encode_bool(
    e: Expr,
    functions: FunctionTable | None = None,
    sorts: dict[str, Sort] | None = None,
    store: Store | None = None,
) -> Formula:
    """Encode a boolean-sorted expression as a formula."""

    if isinstance(e, BoolConst):
        return TRUE_F if e.value else FALSE_F
    if isinstance(e, Cmp):
        left = encode_int(e.left, functions, sorts, store)
        right = encode_int(e.right, functions, sorts, store)
        if e.op == "<":
            return lt_f(left, right)
        if e.op == "<=":
            return le_f(left, right)
        return eq_f(left, right)
    if isinstance(e, Not):
        return fnot(encode_bool(e.operand, functions, sorts, store))
    if isinstance(e, BoolOp):
        left = encode_bool(e.left, functions, sorts, store)
        right = encode_bool(e.right, functions, sorts, store)
        return fand(left, right) if e.op == "and" else for_(left, right)
    if isinstance(e, Var):
        value = store.get(e.name) if store else None
        if isinstance(value, Formula):
            return value
        # Unbound, or bound to a term: the 0/1 convention.
        return eq_f(var_sym(e.name) if value is None else value, Num(1))
    if isinstance(e, Call):
        if functions is not None and e.func in functions and functions[e.func].result_sort != BOOL:
            raise EncodingError(f"call {e.func} is not boolean-sorted")
        return eq_f(encode_int(e, functions, sorts, store), Num(1))
    raise EncodingError(f"not a boolean expression: {e}")


def encode_expr(
    e: Expr,
    functions: FunctionTable | None = None,
    sorts: dict[str, Sort] | None = None,
    store: Store | None = None,
) -> Term | Formula:
    """Encode by sort: booleans become formulas, everything else terms."""

    if _sort_of(e, functions, sorts) == BOOL:
        return encode_bool(e, functions, sorts, store)
    return encode_int(e, functions, sorts, store)
