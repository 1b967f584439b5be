"""Terms and formulas for the QF_UFLIA fragment used by consolidation.

The consolidation calculus issues validity queries ``Ψ ⇒ φ`` in the combined
theory of **linear integer arithmetic** and **uninterpreted functions**
(Section 4 of the paper).  This module defines the term/formula language of
that fragment, with aggressive canonicalisation:

* Integer terms are kept in *linear normal form*: a :class:`Lin` node is a
  constant plus a sorted sum of ``coefficient * atom`` monomials, where an
  atom is a :class:`Sym` (integer variable) or :class:`App` (uninterpreted
  function application).  Products of two non-constant terms are wrapped in
  the uninterpreted function ``@mul`` — a sound weakening, since any fact
  derivable with ``@mul`` uninterpreted also holds for real multiplication.
* Atomic formulas are ``t <= 0`` (:class:`Le`) and ``t = 0`` (:class:`Eq`)
  with ``t`` in linear normal form and integer-tightened: the coefficient
  gcd is divided out (flooring the constant for ``Le``; refuting ``Eq``
  outright when the gcd does not divide the constant).
* ``not (t <= 0)`` is normalised to ``-t + 1 <= 0`` on construction, so the
  only negative theory literal the solver ever sees is a disequality.

Everything is immutable and structurally hashable, which makes formulas
usable as cache keys for entailment memoisation.

Because nodes never change, facts derived from a node are computed once and
kept *on the node* in non-compared, non-printed slots: the structural hash
(``_hash``), the canonical sort key of an atom (``_key``, its ``repr``), the
interaction tokens of a formula (``_tokens``) and the two theory literals of
an atom (``_lits``, filled by :mod:`repro.smt.combine`).  There is nothing to
invalidate, the caches die with the node, and they never leave the process
(see :func:`repro.nodeslots.cached`, which :mod:`repro.lang.ast` shares).
Slot fills are idempotent — two threads racing on an empty slot store the
same value — so threads sharing terms need no lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Any, Iterator, Mapping, Optional, Union

from ..nodeslots import cached as _cached, slot as _slot

__all__ = [
    "Term",
    "Num",
    "Sym",
    "App",
    "Lin",
    "Formula",
    "FTrue",
    "FFalse",
    "Le",
    "Eq",
    "FNot",
    "FAnd",
    "FOr",
    "TRUE_F",
    "FALSE_F",
    "num",
    "sym",
    "app",
    "t_add",
    "t_sub",
    "t_neg",
    "t_scale",
    "t_mul",
    "as_linear",
    "from_linear",
    "le_f",
    "lt_f",
    "eq_f",
    "ne_f",
    "fnot",
    "fand",
    "for_",
    "fimplies",
    "fiff",
    "term_atoms",
    "rename_syms_term",
    "rename_syms",
    "free_syms",
]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """Base class of integer-sorted terms."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Num(Term):
    """An integer constant."""

    value: int


@_cached
@dataclass(frozen=True, slots=True)
class Sym(Term):
    """An integer variable (program local, argument, or fresh name)."""

    name: str
    _hash: Optional[int] = _slot()
    _key: Optional[str] = _slot()


@_cached
@dataclass(frozen=True, slots=True)
class App(Term):
    """An uninterpreted function application ``f(t1..tk)``."""

    func: str
    args: tuple[Term, ...]
    _hash: Optional[int] = _slot()
    _key: Optional[str] = _slot()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@_cached
@dataclass(frozen=True, slots=True)
class Lin(Term):
    """``const + sum(coef * atom)`` with atoms Sym/App, coefs nonzero, sorted.

    Built only through :func:`from_linear`, which enforces the invariants;
    a bare atom or constant is represented as itself, never as a ``Lin``.
    """

    const: int
    coeffs: tuple[tuple[Term, int], ...]
    _hash: Optional[int] = _slot()


Atom = Union[Sym, App]


def num(value: int) -> Num:
    return Num(value)


def sym(name: str) -> Sym:
    return Sym(name)


def app(func: str, *args: Term) -> App:
    return App(func, tuple(args))


def _atom_key(atom: Term) -> str:
    """The canonical sort key of an atom: its ``repr``, computed once."""

    if not isinstance(atom, (Sym, App)):
        return repr(atom)
    key = atom._key
    if key is None:
        key = repr(atom)
        object.__setattr__(atom, "_key", key)
    return key


def as_linear(t: Term) -> tuple[int, dict[Term, int]]:
    """Decompose ``t`` into ``(constant, {atom: coefficient})``."""

    if isinstance(t, Num):
        return t.value, {}
    if isinstance(t, (Sym, App)):
        return 0, {t: 1}
    if isinstance(t, Lin):
        return t.const, dict(t.coeffs)
    raise TypeError(f"not a term: {t!r}")


def from_linear(const: int, coeffs: dict[Term, int]) -> Term:
    """Rebuild the canonical term for a linear decomposition."""

    items = [(a, c) for a, c in coeffs.items() if c != 0]
    if not items:
        return Num(const)
    if len(items) == 1 and const == 0 and items[0][1] == 1:
        return items[0][0]
    items.sort(key=lambda pair: _atom_key(pair[0]))
    return Lin(const, tuple(items))


def t_add(a: Term, b: Term) -> Term:
    ca, ma = as_linear(a)
    cb, mb = as_linear(b)
    merged = dict(ma)
    for atom, coef in mb.items():
        merged[atom] = merged.get(atom, 0) + coef
    return from_linear(ca + cb, merged)


def t_neg(a: Term) -> Term:
    return t_scale(-1, a)


def t_sub(a: Term, b: Term) -> Term:
    return t_add(a, t_neg(b))


def t_scale(k: int, a: Term) -> Term:
    if k == 0:
        return Num(0)
    ca, ma = as_linear(a)
    return from_linear(k * ca, {atom: k * coef for atom, coef in ma.items()})


def t_mul(a: Term, b: Term) -> Term:
    """Multiplication: linear when either side is constant, else ``@mul``.

    The uninterpreted wrapping is a sound under-approximation of the real
    semantics (see module docstring); commutativity is recovered by sorting
    the operands.
    """

    if isinstance(a, Num):
        return t_scale(a.value, b)
    if isinstance(b, Num):
        return t_scale(b.value, a)
    left, right = sorted((a, b), key=_atom_key)
    return App("@mul", (left, right))


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula:
    """Base class of quantifier-free formulas."""

    __slots__ = ()


# Interaction tokens of a formula (see :func:`formula_tokens`): variable
# names, plus ``("app", t)`` for every ground application ``t``.
Token = Union[str, tuple[str, Term]]
Tokens = frozenset[Token]


@dataclass(frozen=True, slots=True)
class FTrue(Formula):
    pass


@dataclass(frozen=True, slots=True)
class FFalse(Formula):
    pass


TRUE_F = FTrue()
FALSE_F = FFalse()


@_cached
@dataclass(frozen=True, slots=True)
class Le(Formula):
    """``term <= 0`` in integer-tightened linear normal form."""

    term: Term
    _hash: Optional[int] = _slot()
    _tokens: Optional[Tokens] = _slot()
    _lits: Optional[tuple[Any, Any]] = _slot()


@_cached
@dataclass(frozen=True, slots=True)
class Eq(Formula):
    """``term = 0`` in normalised linear form."""

    term: Term
    _hash: Optional[int] = _slot()
    _tokens: Optional[Tokens] = _slot()
    _lits: Optional[tuple[Any, Any]] = _slot()


@_cached
@dataclass(frozen=True, slots=True)
class FNot(Formula):
    operand: Formula
    _hash: Optional[int] = _slot()
    _tokens: Optional[Tokens] = _slot()


@_cached
@dataclass(frozen=True, slots=True)
class FAnd(Formula):
    args: tuple[Formula, ...]
    _hash: Optional[int] = _slot()
    _tokens: Optional[Tokens] = _slot()


@_cached
@dataclass(frozen=True, slots=True)
class FOr(Formula):
    args: tuple[Formula, ...]
    _hash: Optional[int] = _slot()
    _tokens: Optional[Tokens] = _slot()


def _coeff_gcd(coeffs: dict[Term, int]) -> int:
    g = 0
    for c in coeffs.values():
        g = gcd(g, abs(c))
    return g


def le_f(lhs: Term, rhs: Term) -> Formula:
    """``lhs <= rhs``, canonicalised and integer-tightened."""

    const, coeffs = as_linear(t_sub(lhs, rhs))
    coeffs = {a: c for a, c in coeffs.items() if c != 0}
    if not coeffs:
        return TRUE_F if const <= 0 else FALSE_F
    g = _coeff_gcd(coeffs)
    if g > 1:
        # g*x + const <= 0  <=>  x <= floor(-const / g)  (integers only)
        coeffs = {a: c // g for a, c in coeffs.items()}
        const = -((-const) // g)
    return Le(from_linear(const, coeffs))


def lt_f(lhs: Term, rhs: Term) -> Formula:
    """``lhs < rhs``  ==  ``lhs + 1 <= rhs`` over the integers."""

    return le_f(t_add(lhs, Num(1)), rhs)


def eq_f(lhs: Term, rhs: Term) -> Formula:
    """``lhs = rhs``, canonicalised; sign-normalised and gcd-checked."""

    const, coeffs = as_linear(t_sub(lhs, rhs))
    coeffs = {a: c for a, c in coeffs.items() if c != 0}
    if not coeffs:
        return TRUE_F if const == 0 else FALSE_F
    g = _coeff_gcd(coeffs)
    if g > 1:
        if const % g != 0:
            return FALSE_F
        coeffs = {a: c // g for a, c in coeffs.items()}
        const //= g
    # Fix the sign of the first (smallest-keyed) coefficient for canonicity.
    first = min(coeffs, key=_atom_key)
    if coeffs[first] < 0:
        coeffs = {a: -c for a, c in coeffs.items()}
        const = -const
    return Eq(from_linear(const, coeffs))


def ne_f(lhs: Term, rhs: Term) -> Formula:
    return fnot(eq_f(lhs, rhs))


def fnot(f: Formula) -> Formula:
    """Negation, pushing through constants and ``<=`` atoms.

    ``not (t <= 0)`` becomes ``1 - t <= 0`` (i.e. ``t >= 1``), so negated
    inequalities never survive as negative literals.
    """

    if isinstance(f, FTrue):
        return FALSE_F
    if isinstance(f, FFalse):
        return TRUE_F
    if isinstance(f, FNot):
        return f.operand
    if isinstance(f, Le):
        return le_f(Num(1), f.term)
    return FNot(f)


def fand(*fs: Formula) -> Formula:
    flat: list[Formula] = []
    for f in fs:
        if isinstance(f, FFalse):
            return FALSE_F
        if isinstance(f, FTrue):
            continue
        if isinstance(f, FAnd):
            flat.extend(f.args)
        else:
            flat.append(f)
    # Deduplicate while preserving order (formulas hash structurally, and
    # each node computes its hash once).
    unique = list(dict.fromkeys(flat))
    if not unique:
        return TRUE_F
    if len(unique) == 1:
        return unique[0]
    return FAnd(tuple(unique))


def for_(*fs: Formula) -> Formula:
    flat: list[Formula] = []
    for f in fs:
        if isinstance(f, FTrue):
            return TRUE_F
        if isinstance(f, FFalse):
            continue
        if isinstance(f, FOr):
            flat.extend(f.args)
        else:
            flat.append(f)
    unique = list(dict.fromkeys(flat))
    if not unique:
        return FALSE_F
    if len(unique) == 1:
        return unique[0]
    return FOr(tuple(unique))


def fimplies(a: Formula, b: Formula) -> Formula:
    return for_(fnot(a), b)


def fiff(a: Formula, b: Formula) -> Formula:
    return fand(fimplies(a, b), fimplies(b, a))


# ---------------------------------------------------------------------------
# Traversal / substitution
# ---------------------------------------------------------------------------


def term_atoms(t: Term) -> Iterator[Term]:
    """Top-level atoms (Sym/App) of a term, without descending into App args."""

    if isinstance(t, (Sym, App)):
        yield t
    elif isinstance(t, Lin):
        for atom, _coef in t.coeffs:
            yield atom


def rename_syms_term(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Substitute variables by terms, everywhere including App arguments.

    A term mentioning no mapped variable is returned by identity.
    """

    if isinstance(t, Num):
        return t
    if isinstance(t, Sym):
        return mapping.get(t.name, t)
    if isinstance(t, App):
        args = tuple(rename_syms_term(a, mapping) for a in t.args)
        if all(new is old for new, old in zip(args, t.args)):
            return t
        return App(t.func, args)
    if isinstance(t, Lin):
        const = t.const
        coeffs: dict[Term, int] = {}
        touched = False
        for atom, coef in t.coeffs:
            renamed = rename_syms_term(atom, mapping)
            touched = touched or renamed is not atom
            c, monomials = as_linear(renamed)
            const += coef * c
            for a, k in monomials.items():
                coeffs[a] = coeffs.get(a, 0) + coef * k
        return from_linear(const, coeffs) if touched else t
    raise TypeError(f"not a term: {t!r}")


def rename_syms(f: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Substitute variables by terms throughout a formula (re-canonicalising).

    Identity-preservation contract: only the sub-formulas whose symbols
    intersect ``mapping`` are rebuilt.  Every other conjunct/disjunct — and
    ``f`` itself when nothing is touched — is returned as the *same object*,
    so extending a context costs what the statement touches, and the
    untouched conjuncts keep their cached hash and tokens.  (The full walk
    this replaces is kept as the reference in
    :func:`repro.testing.reference.rename_syms_full_walk`.)
    """

    if isinstance(f, (FAnd, FOr)):
        # Per child, never for the junction itself: a context is rebuilt by
        # every statement, so a union over all of its conjuncts would put
        # the O(|Ψ|) walk back.
        args = [
            g if formula_tokens(g).isdisjoint(mapping) else rename_syms(g, mapping)
            for g in f.args
        ]
        if all(new is old for new, old in zip(args, f.args)):
            return f
        return fand(*args) if isinstance(f, FAnd) else for_(*args)
    if formula_tokens(f).isdisjoint(mapping):
        return f
    if isinstance(f, Le):
        return le_f(rename_syms_term(f.term, mapping), Num(0))
    if isinstance(f, Eq):
        return eq_f(rename_syms_term(f.term, mapping), Num(0))
    if isinstance(f, FNot):
        return fnot(rename_syms(f.operand, mapping))
    raise TypeError(f"not a formula: {f!r}")


def _is_ground(t: Term) -> bool:
    if isinstance(t, Num):
        return True
    if isinstance(t, Sym):
        return False
    if isinstance(t, App):
        return all(_is_ground(a) for a in t.args)
    if isinstance(t, Lin):
        return all(_is_ground(a) for a, _c in t.coeffs)
    return False


def _term_tokens(t: Term, out: set[Token]) -> None:
    if isinstance(t, Sym):
        out.add(t.name)
    elif isinstance(t, App):
        if _is_ground(t):
            out.add(("app", t))
        for a in t.args:
            _term_tokens(a, out)
    elif isinstance(t, Lin):
        for atom, _coef in t.coeffs:
            _term_tokens(atom, out)


_NO_TOKENS: Tokens = frozenset()


def formula_tokens(f: Formula) -> Tokens:
    """Interaction tokens: variable names plus ground-application keys.

    Two conjuncts can influence a common entailment only through a chain of
    shared tokens — shared variables, or equal ground applications such as
    ``f(3)`` whose results congruence identifies.  This is the one accessor
    for "what does this formula mention": computed once per node and cached
    on it, it serves :func:`cone_of_influence`, :func:`rename_syms` and
    :func:`free_syms`.
    """

    if not isinstance(f, (Le, Eq, FNot, FAnd, FOr)):
        return _NO_TOKENS  # FTrue / FFalse
    tokens = f._tokens
    if tokens is None:
        if isinstance(f, (Le, Eq)):
            out: set[Token] = set()
            _term_tokens(f.term, out)
            tokens = frozenset(out)
        elif isinstance(f, FNot):
            tokens = formula_tokens(f.operand)
        else:
            tokens = _NO_TOKENS.union(*map(formula_tokens, f.args))
        object.__setattr__(f, "_tokens", tokens)
    return tokens


def free_syms(f: Formula) -> set[str]:
    """All variable names occurring in ``f``."""

    return {token for token in formula_tokens(f) if isinstance(token, str)}


def cone_of_influence(hypothesis: Formula, goal: Formula) -> Formula:
    """The conjuncts of ``hypothesis`` that can affect ``goal``.

    Computes the token-overlap fixpoint starting from the goal's tokens.
    Dropping the remaining conjuncts only *weakens* the hypothesis, so an
    entailment proved from the cone is valid for the full context — while
    the query formula stays small and stable enough to cache even as the
    consolidation context grows with every consumed statement.
    """

    parts = list(hypothesis.args) if isinstance(hypothesis, FAnd) else [hypothesis]
    if len(parts) <= 1:
        return hypothesis
    reached = set(formula_tokens(goal))
    kept: list[Formula] = []
    pending = [(p, formula_tokens(p)) for p in parts]
    changed = True
    while changed:
        changed = False
        remaining = []
        for p, tokens in pending:
            if not tokens.isdisjoint(reached):
                kept.append(p)
                reached |= tokens
                changed = True
            else:
                remaining.append((p, tokens))
        pending = remaining
    # Preserve original conjunct order for formula canonicity / caching.
    kept_set = set(kept)
    return fand(*(p for p in parts if p in kept_set))
