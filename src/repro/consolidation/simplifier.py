"""Cross-simplification of expressions (Figure 3 of the paper).

Implements the judgments ``Ψ ⊢i e : e'`` (Int rule) and ``Ψ ⊢b e : e'``
(Bool 1–5) together with ``fold``:

* **Bool 1/2** — if ``Ψ |= e`` the expression collapses to ``true``; if
  ``Ψ |= ¬e`` to ``false``.  These are direct SMT validity queries.
* **Int** — an integer expression may be replaced by any provably equal,
  no-more-expensive expression.  Candidates come from a *value-numbering
  table* maintained by the consolidation algorithm as it consumes
  assignments: when ``x := f(α)+1`` is consumed, ``f(α)+1 ↦ x`` (and
  ``f(α) ↦ x-1`` implicitly, via the linear-decomposition rewrite) become
  candidates for later occurrences.  Every accepted rewrite is re-verified
  against ``Ψ`` by the solver (the table is only a candidate generator), so
  soundness never depends on table bookkeeping.
* **Bool 3/4/5** — comparisons recurse into their integer operands;
  connectives recurse and are re-combined with constant folding.

The cost side condition ``cost(e') <= cost(e)`` is enforced with the static
cost function, exactly as the (Int) rule demands.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable

from ..analysis.costmodel import expr_cost
from ..analysis.sp import SpEngine
from ..lang.ast import (
    Arg,
    BinOp,
    BoolConst,
    BoolOp,
    Call,
    Cmp,
    Expr,
    FALSE,
    IntConst,
    Not,
    StrConst,
    TRUE,
    Var,
)
from ..lang.cost import DEFAULT_COST_MODEL, CostModel
from ..lang.visitors import expr_vars, subexpressions
from ..provenance.recorder import NULL_RECORDER, DerivationRecorder, NullRecorder
from ..smt.interface import Store, Value
from ..smt.solver import Solver
from ..smt.terms import (
    FALSE_F,
    FFalse,
    FTrue,
    Formula,
    TRUE_F,
    cone_of_influence,
    eq_f,
    fand,
    fiff,
    fnot,
)
from ..lang.functions import BOOL

__all__ = ["Context", "SimplifyStats", "fold_expr", "ir_linear", "ir_from_linear"]

_MAX_CALL_CANDIDATES = 8
_MAX_RECENT_ASSIGNS = 12
_MAX_RECENT_PROBES = 4
_PROBE_COST_THRESHOLD = 8

# The store bindings a goal reads, and the memo keys built on them.
Reads = frozenset[tuple[str, Value]]
MemoKey = tuple[object, ...]


def _ground_args_compatible(a: "Call", b: "Call") -> bool:
    """Whether two same-function calls could plausibly return equal values.

    Positions where both arguments are ground literals must agree; a
    mismatch there means the solver could never prove equality anyway (and
    in practice the values differ), so the probe is skipped for free.
    """

    if a.func != b.func or len(a.args) != len(b.args):
        return False
    for x, y in zip(a.args, b.args):
        x_ground = isinstance(x, (IntConst, StrConst, BoolConst))
        y_ground = isinstance(y, (IntConst, StrConst, BoolConst))
        if x_ground and y_ground and x != y:
            return False
    return True


# ---------------------------------------------------------------------------
# IR-level linear decomposition (used for derived rewrites like f(a)-1 -> x-2)
# ---------------------------------------------------------------------------


def ir_linear(e: Expr) -> tuple[int, dict[Expr, int]] | None:
    """Decompose an integer expression into ``const + sum(coef * atom)``.

    Atoms are variables, arguments and calls.  Returns None when the
    expression contains non-linear structure we cannot decompose (e.g. a
    product of two non-constant subexpressions).
    """

    if isinstance(e, IntConst):
        return e.value, {}
    if isinstance(e, (Var, Arg, Call)):
        return 0, {e: 1}
    if isinstance(e, BinOp):
        left = ir_linear(e.left)
        right = ir_linear(e.right)
        if left is None or right is None:
            return None
        cl, ml = left
        cr, mr = right
        if e.op in ("+", "-"):
            sign = 1 if e.op == "+" else -1
            merged = dict(ml)
            for atom, coef in mr.items():
                merged[atom] = merged.get(atom, 0) + sign * coef
            return cl + sign * cr, {a: c for a, c in merged.items() if c != 0}
        # Multiplication: linear only when one side is constant.
        if not ml:
            return cl * cr, {a: cl * c for a, c in mr.items() if cl * c != 0}
        if not mr:
            return cr * cl, {a: cr * c for a, c in ml.items() if cr * c != 0}
        return None
    return None


def ir_from_linear(const: int, coeffs: dict[Expr, int]) -> Expr:
    """Rebuild an IR expression from a linear decomposition (canonical order)."""

    result: Expr | None = None
    for atom, coef in sorted(coeffs.items(), key=lambda p: repr(p[0])):
        if coef == 0:
            continue
        piece: Expr = atom if abs(coef) == 1 else BinOp("*", IntConst(abs(coef)), atom)
        if result is None:
            result = piece if coef > 0 else BinOp("-", IntConst(0), piece)
        else:
            result = BinOp("+" if coef > 0 else "-", result, piece)
    if result is None:
        return IntConst(const)
    if const > 0:
        return BinOp("+", result, IntConst(const))
    if const < 0:
        return BinOp("-", result, IntConst(-const))
    return result


# ---------------------------------------------------------------------------
# Constant folding (the paper's ``fold``)
# ---------------------------------------------------------------------------


def fold_expr(e: Expr) -> Expr:
    """One-level constant folding used by Bool 4/5 (and arithmetic peepholes)."""

    if isinstance(e, BoolOp):
        l, r = e.left, e.right
        if e.op == "and":
            if l == TRUE:
                return r
            if r == TRUE:
                return l
            if l == FALSE or r == FALSE:
                return FALSE
        else:
            if l == FALSE:
                return r
            if r == FALSE:
                return l
            if l == TRUE or r == TRUE:
                return TRUE
        return e
    if isinstance(e, Not):
        if e.operand == TRUE:
            return FALSE
        if e.operand == FALSE:
            return TRUE
        if isinstance(e.operand, Not):
            return e.operand.operand
        return e
    if isinstance(e, BinOp):
        l, r = e.left, e.right
        if isinstance(l, IntConst) and isinstance(r, IntConst):
            if e.op == "+":
                return IntConst(l.value + r.value)
            if e.op == "-":
                return IntConst(l.value - r.value)
            return IntConst(l.value * r.value)
        if e.op == "+" and r == IntConst(0):
            return l
        if e.op == "+" and l == IntConst(0):
            return r
        if e.op == "-" and r == IntConst(0):
            return l
        if e.op == "*" and (l == IntConst(0) or r == IntConst(0)):
            return IntConst(0)
        if e.op == "*" and l == IntConst(1):
            return r
        if e.op == "*" and r == IntConst(1):
            return l
        return e
    if isinstance(e, Cmp):
        l, r = e.left, e.right
        if isinstance(l, IntConst) and isinstance(r, IntConst):
            if e.op == "<":
                return TRUE if l.value < r.value else FALSE
            if e.op == "<=":
                return TRUE if l.value <= r.value else FALSE
            return TRUE if l.value == r.value else FALSE
        if isinstance(l, StrConst) and isinstance(r, StrConst) and e.op == "=":
            return TRUE if l.value == r.value else FALSE
        if l == r and e.op in ("=", "<="):
            return TRUE
        return e
    return e


# ---------------------------------------------------------------------------
# The consolidation context Ψ (+ value-numbering table)
# ---------------------------------------------------------------------------


@dataclass
class SimplifyStats:
    """Counters for the entailment fast paths (shared across a whole batch).

    ``entail_queries`` counts semantic questions asked of the context;
    ``precheck_skips`` the ones decided without the solver — the goal
    folded to a constant through the store, or an equality under an empty
    path condition compared its two store values; ``memo_hits`` the repeats answered
    from the ``(Ψ, store reads, e)`` memo; ``smt_queries`` the remainder
    that actually reached the solver.
    """

    entail_queries: int = 0
    smt_queries: int = 0
    precheck_skips: int = 0
    memo_hits: int = 0

    def add(self, other: "SimplifyStats") -> None:
        """Fold another pair's counters into these."""

        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def snapshot(self) -> dict[str, float]:
        total = self.entail_queries
        return {
            "entail_queries": total,
            "smt_queries": self.smt_queries,
            "precheck_skips": self.precheck_skips,
            "memo_hits": self.memo_hits,
            "memo_hit_rate": (self.memo_hits / total) if total else 0.0,
        }


@dataclass
class Context:
    """Everything the judgments of Figures 3/5 thread through a derivation.

    The logical context Ψ is a symbolic state (:mod:`repro.analysis.sp`):
    ``store`` maps each consumed local to its value and ``psi`` is the path
    condition — branch conditions and loop facts only.  Every goal is
    encoded through the store, so ``x := f(a); y := f(a)`` makes
    ``x = y`` the syntactic ``f(a) = f(a)``, which folds to true before any
    solver is asked.  ``bindings`` maps previously computed expressions to
    the cheap expression (usually a variable) holding their value — the
    candidate generator for the (Int) rule.  Contexts are value-like: use
    :meth:`branch` when exploring conditional arms.

    ``stats``, ``entail_memo``, ``query_memo`` and ``cost_memo`` are shared
    by reference across :meth:`branch`.  The first two key on ``psi`` and on
    the store bindings the goal reads, and the function table and cost
    model are fixed for a pair, so sharing across branches stays sound.
    """

    engine: SpEngine
    solver: Solver
    cost_model: CostModel = DEFAULT_COST_MODEL
    psi: Formula = TRUE_F
    store: Store = field(default_factory=dict)
    bindings: dict[Expr, Expr] = field(default_factory=dict)
    defs: dict[str, Expr] = field(default_factory=dict)
    call_sites: dict[str, list[tuple[Expr, Call]]] = field(default_factory=dict)
    recent_assigns: list[tuple[str, Expr]] = field(default_factory=list)
    use_smt: bool = True
    stats: SimplifyStats = field(default_factory=SimplifyStats)
    entail_memo: dict[MemoKey, tuple[bool, Formula]] = field(default_factory=dict)
    # (Ψ, reads, e) -> what ``entails_expr`` asks the solver: both polarities read it.
    query_memo: dict[MemoKey, tuple[Formula, Formula] | None] = field(default_factory=dict)
    cost_memo: dict[Expr, int] = field(default_factory=dict)
    recorder: DerivationRecorder | NullRecorder = NULL_RECORDER

    # -- plumbing -------------------------------------------------------------

    def branch(self, psi: Formula | None = None, store: Store | None = None) -> "Context":
        return replace(
            self,
            psi=self.psi if psi is None else psi,
            store=dict(self.store if store is None else store),
            bindings=dict(self.bindings),
            defs=dict(self.defs),
            call_sites={k: list(v) for k, v in self.call_sites.items()},
            recent_assigns=list(self.recent_assigns),
        )

    def observe(self, e: Expr, *, negate: bool = False) -> None:
        """Conjoin a branch outcome to the path condition."""

        self.psi = self.assume(e, negate=negate)

    def forget(self, names: Iterable[str]) -> None:
        """Havoc ``names`` in the store: their values are no longer known."""

        self.engine.havoc(self.store, names)

    def assuming(self, e: Expr, *, negate: bool = False) -> "Context":
        """A branch context whose path condition also holds ``e``."""

        out = self.branch()
        out.observe(e, negate=negate)
        return out

    def cost(self, e: Expr) -> int:
        known = self.cost_memo.get(e)
        if known is None:
            known = self.cost_memo[e] = expr_cost(e, self.engine.functions, self.cost_model)
        return known

    def _reads(self, *exprs: Expr) -> Reads:
        """The store bindings a goal over ``exprs`` reads."""

        store = self.store
        return frozenset((n, store[n]) for e in exprs for n in expr_vars(e) if n in store)

    def _query(self, goal: Formula | None) -> tuple[Formula, Formula] | None:
        """``(goal, the path condition's cone of influence for it)``: pruning
        the hypothesis only weakens it; a constant goal needs none."""

        if goal is None:
            return None
        if isinstance(goal, (FTrue, FFalse)):
            return goal, TRUE_F
        return goal, cone_of_influence(self.psi, goal)

    def _decide(
        self,
        kind: str,
        key: MemoKey,
        query: object,
        reads: Reads,
        encode: Callable[[], tuple[Formula, Formula] | None],
        negate: bool = False,
    ) -> bool:
        """The one entailment ladder behind the three judgments below.

        ``(Ψ, reads, *key)`` memo, then the goal encoded through the store
        (``encode``, via :meth:`_query`; ``None``: outside the fragment, not
        entailed), decided on the spot when it folded to a constant, else by
        the solver on the path condition's cone of influence.
        """

        self.stats.entail_queries += 1
        key = (self.psi, reads, *key)
        seconds = 0.0
        known = self.entail_memo.get(key)
        if known is not None:
            self.stats.memo_hits += 1
            (result, hyp), source = known, "memo"
        elif (asked := encode()) is None:
            (result, hyp), source = (False, self.psi), "syntactic"
        else:
            goal, hyp = asked
            if isinstance(goal, (FTrue, FFalse)):
                self.stats.precheck_skips += 1
                result, source = isinstance(goal, FTrue) != negate, "precheck"
            else:
                self.stats.smt_queries += 1
                started = time.perf_counter()
                prove = self.solver.entails_not if negate else self.solver.entails
                result, source = prove(hyp, goal), "smt"
                seconds = time.perf_counter() - started
        if source != "memo":
            self.entail_memo[key] = (result, hyp)
        self.recorder.entailment(kind, hyp, query, result, seconds, source, reads)
        return result

    def entails_expr(self, e: Expr, *, negate: bool = False) -> bool:
        """``Ψ |= e`` (or ``Ψ |= ¬e``), False when outside the fragment."""

        if not self.use_smt:
            return False
        reads = self._reads(e)

        def encode() -> tuple[Formula, Formula] | None:
            # If 1 / If 2 and Bool 1 / Bool 2 ask both polarities back to
            # back: one encoding and one cone serve the two.
            key = (self.psi, reads, e)
            if key not in self.query_memo:
                self.query_memo[key] = self._query(self.engine.encode_bool(e, self.store))
            return self.query_memo[key]

        return self._decide(
            "entails-not" if negate else "entails", (e, negate), e, reads, encode, negate
        )

    def provably_equal(self, a: Expr, b: Expr) -> bool:
        """``Ψ |= a = b`` for two integer/string-sorted expressions."""

        if a == b:
            return True
        if not self.use_smt:
            return False

        def encode() -> tuple[Formula, Formula] | None:
            ta = self.engine.encode_int(a, self.store)
            tb = self.engine.encode_int(b, self.store)
            if ta is None or tb is None:
                return None
            if isinstance(self.psi, FTrue):
                # Nothing assumed: ``ta = tb`` is valid exactly when the two
                # canonical terms are one (a non-constant difference is a
                # lone literal, satisfiable either way; a constant one folds).
                return (TRUE_F if ta == tb else FALSE_F), TRUE_F
            return self._query(eq_f(ta, tb))

        return self._decide("equal", ("=", a, b), ("{} = {}", a, b), self._reads(a, b), encode)

    # -- table maintenance ------------------------------------------------------

    def kill_var(self, name: str) -> None:
        """Drop bindings invalidated by an assignment to ``name``.

        A scan of the tables, each test one membership probe on the
        expression's ``_vars`` slot.  A variable → dependants index would
        make the kill cost what it kills, but :meth:`branch` — taken at
        every conditional — would have to copy it.
        """

        dead = [
            k
            for k, v in self.bindings.items()
            if name in expr_vars(k) or name in expr_vars(v)
        ]
        for k in dead:
            del self.bindings[k]
        self.defs.pop(name, None)
        dead_defs = [n for n, d in self.defs.items() if name in expr_vars(d)]
        for n in dead_defs:
            del self.defs[n]
        # A reassigned variable no longer holds the call results it cached —
        # but variables holding calls whose *arguments* mention ``name`` stay:
        # they are semantic candidates, re-verified against Ψ on every use.
        for holders in self.call_sites.values():
            holders[:] = [(h, c) for h, c in holders if name not in expr_vars(h)]
        self.recent_assigns = [(n, r) for n, r in self.recent_assigns if n != name]

    def kill_vars(self, names: Iterable[str]) -> None:
        for n in names:
            self.kill_var(n)

    def record_assign(self, var: str, rhs: Expr) -> None:
        """After consuming ``var := rhs``: refresh the table and the context."""

        self.kill_var(var)
        target = Var(var)
        if isinstance(rhs, (IntConst, StrConst, BoolConst)):
            # Remember the constant value of the variable itself.
            self.bindings[target] = rhs
        elif var not in expr_vars(rhs) and self.cost(rhs) > self.cost(target):
            self.bindings[rhs] = target
        if var not in expr_vars(rhs):
            self.defs[var] = rhs
            self._record_derived_binding(target, rhs)
        if isinstance(rhs, Call):
            self.call_sites.setdefault(rhs.func, []).append((target, rhs))
        self.recent_assigns.append((var, rhs))
        if len(self.recent_assigns) > _MAX_RECENT_ASSIGNS:
            del self.recent_assigns[0]
        self.engine.assign(self.store, var, rhs)

    def _record_derived_binding(self, target: Expr, rhs: Expr) -> None:
        """Solve ``x := const + k*c + rest`` for a lone unit-coefficient call.

        After ``x := f(a) + 1`` the table learns ``f(a) ↦ x - 1``, which is
        what lets a later ``f(a) - 1`` rewrite to ``x - 2`` (the paper's
        Figure 4 example).
        """

        if isinstance(rhs, Call):
            return  # the direct binding already covers this
        decomposition = ir_linear(rhs)
        if decomposition is None:
            return
        const, coeffs = decomposition
        calls = [(a, k) for a, k in coeffs.items() if isinstance(a, Call)]
        if len(calls) != 1 or abs(calls[0][1]) != 1:
            return
        call_atom, k = calls[0]
        solved: dict[Expr, int] = {target: k}
        for atom, coef in coeffs.items():
            if atom != call_atom:
                solved[atom] = solved.get(atom, 0) - k * coef
        derived = fold_expr(ir_from_linear(-k * const, solved))
        if self.cost(derived) <= self.cost(call_atom):
            self.bindings[call_atom] = derived
            self.call_sites.setdefault(call_atom.func, []).append((derived, call_atom))

    def assume(self, e: Expr, *, negate: bool = False) -> Formula:
        """The path condition with ``e`` (or ``¬e``) read through the store."""

        asked = self.query_memo.get((self.psi, self._reads(e), e))
        if asked is None:  # not asked in this state, or outside the fragment
            return self.engine.assume(self.psi, e, self.store, negate=negate)
        # If 1-5 assume the test they have just asked about: same encoding.
        return fand(self.psi, fnot(asked[0]) if negate else asked[0])

    # -- the (Int) judgment:  Ψ ⊢i e : e' ---------------------------------------

    def _candidates_for_call(self, e: Call) -> list[Expr]:
        out: list[Expr] = []
        exact = self.bindings.get(e)
        if exact is not None:
            out.append(exact)
        for key, value in self.bindings.items():
            if value in out:
                continue
            if isinstance(key, Call) and _ground_args_compatible(key, e):
                out.append(value)
            if len(out) >= _MAX_CALL_CANDIDATES:
                break
        # Variables that held a result of this function at some point; their
        # equality with ``e`` is decided semantically by the caller.  The
        # ground-argument prefilter rejects e.g. ``contains(row, 17)`` vs
        # ``contains(row, 23)`` without paying for a solver call.
        for holder, defining in reversed(self.call_sites.get(e.func, [])):
            if holder not in out and _ground_args_compatible(defining, e):
                out.append(holder)
            if len(out) >= _MAX_CALL_CANDIDATES:
                break
        return out

    def _probe_recent(self, e: Expr) -> Expr | None:
        """A recently assigned variable provably equal to ``e``, if any.

        Only attempted for *composite* expensive expressions embedding a
        call (bare calls are handled by the call-candidate path), and only
        against recent assignments whose right-hand side shares call
        structure — each surviving probe is one entailment query.
        """

        if not self.use_smt or self.cost(e) < _PROBE_COST_THRESHOLD:
            return None
        if isinstance(e, Call):
            return None
        e_calls = [sub for sub in subexpressions(e) if isinstance(sub, Call)]
        if not e_calls:
            return None
        try:
            e_sort = self.engine.sort_of(e)
        except Exception:  # noqa: BLE001 - ill-typed: no probing
            return None
        probes = 0
        for name, rhs in reversed(self.recent_assigns):
            if probes >= _MAX_RECENT_PROBES:
                break
            candidate = Var(name)
            if candidate == e:
                continue
            if self.engine.sorts.get(name) != e_sort:
                continue
            rhs_calls = [sub for sub in subexpressions(rhs) if isinstance(sub, Call)]
            if not rhs_calls:
                continue
            if not any(
                _ground_args_compatible(rc, ec)
                for rc in rhs_calls
                for ec in e_calls
            ):
                continue
            probes += 1
            if self.provably_equal(e, candidate):
                return candidate
        return None

    def _simplify_atom(self, e: Expr) -> Expr:
        """Simplify a linear atom (variable or call) to a cheaper equal expr."""

        if isinstance(e, Var):
            bound = self.bindings.get(e)
            if bound is not None and self.cost(bound) <= self.cost(e):
                return bound
            return e
        if isinstance(e, Call):
            new_args = tuple(self.simplify_int(a) for a in e.args)
            rebuilt = Call(e.func, new_args)
            exact = self.bindings.get(rebuilt) or self.bindings.get(e)
            if exact is not None and self.cost(exact) <= self.cost(rebuilt):
                if not self.use_smt or self.provably_equal(e, exact):
                    return exact
            if self.use_smt:
                for cand in self._candidates_for_call(rebuilt):
                    if self.cost(cand) <= self.cost(rebuilt) and self.provably_equal(e, cand):
                        return cand
            return rebuilt if self.cost(rebuilt) <= self.cost(e) else e
        return e

    def simplify_int(self, e: Expr) -> Expr:
        if isinstance(e, (IntConst, StrConst, Arg)):
            return e
        # Whole-expression table hit first (cheapest possible outcome).
        exact = self.bindings.get(e)
        if exact is not None and self.cost(exact) <= self.cost(e):
            if not self.use_smt or self.provably_equal(e, exact):
                return exact

        # Probe recently assigned variables: catches accumulator patterns
        # like ``s1 + f(m1)`` equalling the just-updated ``s2`` (Example 6
        # rewrites ``f(j)`` to ``t1`` and ``j - 1`` to ``i`` this way).
        probed = self._probe_recent(e)
        if probed is not None:
            return probed

        decomposition = ir_linear(e)
        if decomposition is not None:
            const, coeffs = decomposition
            new_coeffs: dict[Expr, int] = {}
            new_const = const
            changed = False
            for atom, coef in coeffs.items():
                simplified = self._simplify_atom(atom)
                if simplified is not atom and simplified != atom:
                    changed = True
                if isinstance(simplified, IntConst):
                    new_const += coef * simplified.value
                    continue
                inner = ir_linear(simplified)
                if inner is None:
                    new_coeffs[simplified] = new_coeffs.get(simplified, 0) + coef
                    continue
                ic, im = inner
                new_const += coef * ic
                for a, c in im.items():
                    new_coeffs[a] = new_coeffs.get(a, 0) + coef * c
            if changed:
                rebuilt = fold_expr(ir_from_linear(new_const, new_coeffs))
                if self.cost(rebuilt) <= self.cost(e) and (
                    not self.use_smt or self.provably_equal(e, rebuilt)
                ):
                    return rebuilt
            return e

        if isinstance(e, BinOp):
            rebuilt = fold_expr(
                BinOp(e.op, self.simplify_int(e.left), self.simplify_int(e.right))
            )
            if self.cost(rebuilt) <= self.cost(e) and (
                rebuilt == e or not self.use_smt or self.provably_equal(e, rebuilt)
            ):
                return rebuilt
            return e
        if isinstance(e, Call):
            return self._simplify_atom(e)
        return e

    # -- the (Bool) judgments:  Ψ ⊢b e : e' ---------------------------------------

    def provably_equiv_bool(self, a: Expr, b: Expr) -> bool:
        """``Ψ |= a <-> b`` for two boolean-sorted expressions."""

        if a == b:
            return True
        if not self.use_smt:
            return False

        def encode() -> tuple[Formula, Formula] | None:
            fa = self.engine.encode_bool(a, self.store)
            fb = self.engine.encode_bool(b, self.store)
            return self._query(None if fa is None or fb is None else fiff(fa, fb))

        return self._decide(
            "iff", ("<->", a, b), ("{} <-> {}", a, b), self._reads(a, b), encode
        )

    def simplify_bool(self, e: Expr) -> Expr:
        # Bool 1 / Bool 2: the whole predicate is decided by the context.
        folded = fold_expr(e)
        if isinstance(folded, BoolConst):
            return folded
        if self.entails_expr(folded):
            return TRUE
        if self.entails_expr(folded, negate=True):
            return FALSE
        e = folded
        # Boolean memoisation: a previously computed predicate held in a var.
        bound = self.bindings.get(e)
        if (
            bound is not None
            and self.cost(bound) <= self.cost(e)
            and (not self.use_smt or self.provably_equiv_bool(e, bound))
        ):
            return bound
        # Bool 3: comparisons simplify their integer operands.
        if isinstance(e, Cmp):
            left = self.simplify_int(e.left)
            right = self.simplify_int(e.right)
            return fold_expr(Cmp(e.op, left, right))
        # Bool 4: connectives recurse and fold.
        if isinstance(e, BoolOp):
            left = self.simplify_bool(e.left)
            right = self.simplify_bool(e.right)
            return fold_expr(BoolOp(e.op, left, right))
        # Bool 5: negation recurses and folds.
        if isinstance(e, Not):
            return fold_expr(Not(self.simplify_bool(e.operand)))
        if isinstance(e, Var):
            bound = self.bindings.get(e)
            if isinstance(bound, BoolConst):
                return bound
            return e
        return e

    def simplify_for_sort(self, e: Expr) -> Expr:
        """Dispatch on the expression's sort (booleans vs integers)."""

        try:
            sort = self.engine.sort_of(e)
        except Exception:  # noqa: BLE001 - ill-typed: leave untouched
            return e
        if sort == BOOL:
            return self.simplify_bool(e)
        return self.simplify_int(e)
