"""Linear integer arithmetic decision engine (Fourier–Motzkin based).

Decides conjunctions of linear equalities, inequalities and disequalities
over integer-valued unknowns.  The design point matches its use inside the
lazy theory combination:

* **UNSAT answers are proofs.**  Every refutation is a chain of valid
  derivations (gcd divisibility checks, unit-coefficient Gaussian
  elimination, Fourier–Motzkin combinations with integer tightening,
  case splits on disequalities), so an ``unsat`` verdict can be trusted by
  the consolidation calculus.
* **SAT answers may be approximate.**  Fourier–Motzkin establishes rational
  satisfiability; in rare integer-only-unsat corners (and when budgets are
  exceeded) the engine answers ``sat``/``unknown``, which merely makes the
  optimiser skip an opportunity — never produce wrong code.

Constraints are kept as ``coeffs . vars + const (<=|=|!=) 0`` with
coefficient maps keyed by arbitrary hashable variable handles (the combiner
uses congruence-class root ids).

There is one elimination engine.  A caller that may want an integer *model*
of a ``sat`` answer passes a :class:`LiaTrail`; the engine notes in it what
it eliminated (references to lists it builds anyway), and
:meth:`LiaTrail.model` back-substitutes only when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Hashable, Iterable, Optional

__all__ = ["LinCon", "LiaStatus", "LiaTrail", "lia_check", "lia_implies_eq"]

Var = Hashable


@dataclass(frozen=True)
class LinCon:
    """A linear constraint ``sum(coeffs[v] * v) + const  REL  0``."""

    coeffs: tuple[tuple[Var, int], ...]
    const: int

    @staticmethod
    def make(coeffs: dict[Var, int], const: int) -> "LinCon":
        items = sorted(((v, c) for v, c in coeffs.items() if c != 0), key=lambda p: repr(p[0]))
        return LinCon(tuple(items), const)

    def coeff_map(self) -> dict[Var, int]:
        return dict(self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs


LiaStatus = str  # 'sat' | 'unsat' | 'unknown'

_DISEQ_SPLIT_LIMIT = 10  # max disequalities to case-split (2^10 branches worst case)
_FM_CONSTRAINT_BUDGET = 4000


def _normalize_le(coeffs: dict[Var, int], const: int) -> LinCon | None:
    """Canonicalise ``<= 0``; returns None if trivially true, raises on false."""

    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    if not coeffs:
        if const <= 0:
            return None
        raise _Unsat()
    g = 0
    for c in coeffs.values():
        g = gcd(g, abs(c))
    if g > 1:
        coeffs = {v: c // g for v, c in coeffs.items()}
        const = -((-const) // g)  # integer tightening
    return LinCon.make(coeffs, const)


def _normalize_eq(coeffs: dict[Var, int], const: int) -> LinCon | None:
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    if not coeffs:
        if const == 0:
            return None
        raise _Unsat()
    g = 0
    for c in coeffs.values():
        g = gcd(g, abs(c))
    if g > 1:
        if const % g != 0:
            raise _Unsat()
        coeffs = {v: c // g for v, c in coeffs.items()}
        const //= g
    return LinCon.make(coeffs, const)


class _Unsat(Exception):
    """Internal signal: the current conjunction is refuted."""


class _Budget(Exception):
    """Internal signal: resource budget exhausted; answer 'unknown'."""


class LiaTrail:
    """What one ``sat`` run of :func:`lia_check` eliminated, in order.

    ``pivots`` holds ``(variable, replacement, constant)`` per Gaussian step,
    ``bounds`` holds ``(variable, upper-bound rows, lower-bound rows)`` per
    Fourier–Motzkin step of the branch that was accepted.
    """

    __slots__ = ("pivots", "bounds")

    def __init__(self) -> None:
        self.pivots: list[tuple[Var, dict[Var, int], int]] = []
        self.bounds: list[tuple[Var, list[LinCon], list[LinCon]]] = []

    def model(self) -> Optional[dict[Var, int]]:
        """Integer values by back-substitution (a variable that is absent is
        0), or None when rounding leaves a variable no integer in its bounds.

        Fourier–Motzkin proves *rational* satisfiability, so the result is a
        candidate: callers verify it against what they asked.
        """

        values: dict[Var, int] = {}
        for var, uppers, lowers in reversed(self.bounds):
            low: Optional[int] = None
            high: Optional[int] = None
            for con in uppers:  # a * var + rest <= 0 with a > 0
                a, rest = _split(con, var, values)
                bound = -rest // a
                high = bound if high is None else min(high, bound)
            for con in lowers:  # a < 0: var >= rest / -a, rounded up
                a, rest = _split(con, var, values)
                bound = -(-rest // -a)
                low = bound if low is None else max(low, bound)
            if low is not None and high is not None and low > high:
                return None
            # 0 clamped into the bounds: absent entries of a witness read as 0.
            if low is not None and low > 0:
                values[var] = low
            elif high is not None and high < 0:
                values[var] = high
            else:
                values[var] = 0
        for pivot, replacement, const in reversed(self.pivots):
            values[pivot] = const + sum(c * values.get(v, 0) for v, c in replacement.items())
        return values


def _split(con: LinCon, var: Var, values: dict[Var, int]) -> tuple[int, int]:
    """``(coefficient of var, value of the rest of the row)`` under ``values``."""

    a, rest = 0, con.const
    for v, c in con.coeffs:
        if v == var:
            a = c
        else:
            rest += c * values.get(v, 0)
    return a, rest


def _substitute(
    con: LinCon, var: Var, replacement: dict[Var, int], rep_const: int
) -> tuple[dict[Var, int], int]:
    """Replace ``var`` by ``replacement + rep_const`` inside ``con``."""

    coeffs = con.coeff_map()
    k = coeffs.pop(var, 0)
    const = con.const
    if k:
        for v, c in replacement.items():
            coeffs[v] = coeffs.get(v, 0) + k * c
        const += k * rep_const
    return coeffs, const


def _eliminate_equalities(
    eqs: list[LinCon], les: list[LinCon], diseqs: list[LinCon], trail: Optional[LiaTrail]
) -> tuple[list[LinCon], list[LinCon]]:
    """Gaussian elimination using unit-coefficient pivots; returns the
    remaining ``(les, diseqs)``.

    Equalities without a unit coefficient are deferred: they are turned into
    opposing inequalities at the end (sound; loses only some integer-level
    refutation power, which the gcd checks partially recover).
    """

    progress = True
    while progress:
        progress = False
        for i, eq in enumerate(eqs):
            pivot = next((v for v, c in eq.coeffs if abs(c) == 1), None)
            if pivot is None:
                continue
            coeffs = eq.coeff_map()
            k = coeffs.pop(pivot)
            # pivot = (-const - rest) / k with k = +-1
            replacement = {v: -c * k for v, c in coeffs.items()}
            rep_const = -eq.const * k
            if trail is not None:
                trail.pivots.append((pivot, replacement, rep_const))
            new_eqs: list[LinCon] = []
            for j, other in enumerate(eqs):
                if j == i:
                    continue
                cs, cn = _substitute(other, pivot, replacement, rep_const)
                norm = _normalize_eq(cs, cn)
                if norm is not None:
                    new_eqs.append(norm)
            new_les: list[LinCon] = []
            for other in les:
                cs, cn = _substitute(other, pivot, replacement, rep_const)
                norm = _normalize_le(cs, cn)
                if norm is not None:
                    new_les.append(norm)
            new_diseqs: list[LinCon] = []
            for other in diseqs:
                cs, cn = _substitute(other, pivot, replacement, rep_const)
                cs = {v: c for v, c in cs.items() if c != 0}
                if not cs:
                    if cn == 0:
                        raise _Unsat()
                    continue  # constant nonzero: satisfied
                new_diseqs.append(LinCon.make(cs, cn))
            eqs, les, diseqs = new_eqs, new_les, new_diseqs
            progress = True
            break
    # Residual non-unit equalities become inequality pairs.
    for eq in eqs:
        les.append(LinCon(eq.coeffs, eq.const))
        les.append(LinCon(tuple((v, -c) for v, c in eq.coeffs), -eq.const))
    return les, diseqs


def _fourier_motzkin(les: list[LinCon], trail: Optional[LiaTrail]) -> None:
    """Refute or accept a conjunction of ``<= 0`` constraints; raises on unsat.

    On acceptance the elimination order and each variable's bound rows are
    left in ``trail.bounds``.
    """

    # Deduplicate.
    current: set[LinCon] = set()
    for con in les:
        norm = _normalize_le(con.coeff_map(), con.const)
        if norm is not None:
            current.add(norm)
    total = len(current)
    bounds: list[tuple[Var, list[LinCon], list[LinCon]]] = []

    while current:
        variables: dict[Var, tuple[int, int]] = {}
        for con in current:
            for v, c in con.coeffs:
                pos, neg = variables.get(v, (0, 0))
                if c > 0:
                    variables[v] = (pos + 1, neg)
                else:
                    variables[v] = (pos, neg + 1)
        # Pick the variable minimising the number of generated combinations.
        var = min(variables, key=lambda v: variables[v][0] * variables[v][1])
        pos_cons: list[LinCon] = []
        neg_cons: list[LinCon] = []
        rest: list[LinCon] = []
        for con in current:
            k = next((c for v, c in con.coeffs if v == var), 0)
            (pos_cons if k > 0 else neg_cons if k < 0 else rest).append(con)
        bounds.append((var, pos_cons, neg_cons))
        new: set[LinCon] = set(rest)
        for p in pos_cons:
            pc = p.coeff_map()
            a = pc[var]
            for n in neg_cons:
                nc = n.coeff_map()
                b = -nc[var]
                combined: dict[Var, int] = {}
                for v, c in pc.items():
                    if v != var:
                        combined[v] = combined.get(v, 0) + b * c
                for v, c in nc.items():
                    if v != var:
                        combined[v] = combined.get(v, 0) + a * c
                norm = _normalize_le(combined, b * p.const + a * n.const)
                if norm is not None:
                    new.add(norm)
        total += len(new)
        if total > _FM_CONSTRAINT_BUDGET:
            raise _Budget()
        current = new
    if trail is not None:
        trail.bounds = bounds


def _check_conjunction(
    les: list[LinCon], diseqs: list[LinCon], depth: int, trail: Optional[LiaTrail]
) -> LiaStatus:
    if not diseqs:
        try:
            _fourier_motzkin(les, trail)
            return "sat"
        except _Unsat:
            return "unsat"
        except _Budget:
            return "unknown"
    if depth >= _DISEQ_SPLIT_LIMIT:
        # Too many splits: drop remaining disequalities (weakens toward SAT).
        status = _check_conjunction(les, [], depth, trail)
        return "unknown" if status == "sat" else status
    head, *tail = diseqs
    # t != 0  ==>  t <= -1  or  t >= 1 ; each branch may itself be refuted
    # during normalisation, which refutes only that branch.  The first
    # satisfiable branch decides (and its eliminations stay on the trail).
    verdict: LiaStatus = "unsat"
    branches = (
        (head.coeff_map(), head.const + 1),
        ({v: -c for v, c in head.coeffs}, -head.const + 1),
    )
    for coeffs, const in branches:
        try:
            extra = _normalize_le(coeffs, const)
        except _Unsat:
            continue
        branch = les + ([extra] if extra is not None else [])
        status = _check_conjunction(branch, tail, depth + 1, trail)
        if status == "sat":
            return "sat"
        if status == "unknown":
            verdict = "unknown"
    return verdict


def lia_check(
    eqs: Iterable[LinCon],
    les: Iterable[LinCon],
    diseqs: Iterable[LinCon] = (),
    trail: Optional[LiaTrail] = None,
) -> LiaStatus:
    """Decide ``/\\ eqs = 0  /\\ les <= 0  /\\ diseqs != 0``.

    Returns ``'unsat'`` only with a valid refutation; ``'sat'`` / ``'unknown'``
    otherwise (see module docstring for the asymmetry rationale).  After a
    ``'sat'`` answer, ``trail.model()`` is a candidate integer model.
    """

    try:
        norm_eqs: list[LinCon] = []
        for eq in eqs:
            n = _normalize_eq(eq.coeff_map(), eq.const)
            if n is not None:
                norm_eqs.append(n)
        norm_les: list[LinCon] = []
        for le in les:
            n = _normalize_le(le.coeff_map(), le.const)
            if n is not None:
                norm_les.append(n)
        norm_dis: list[LinCon] = []
        for d in diseqs:
            coeffs = {v: c for v, c in d.coeffs if c != 0}
            if not coeffs:
                if d.const == 0:
                    return "unsat"
                continue
            norm_dis.append(LinCon.make(coeffs, d.const))
        les2, dis2 = _eliminate_equalities(norm_eqs, norm_les, norm_dis, trail)
        return _check_conjunction(les2, dis2, 0, trail)
    except _Unsat:
        return "unsat"
    except _Budget:
        return "unknown"


def lia_implies_eq(
    eqs: list[LinCon], les: list[LinCon], diseqs: list[LinCon], u: Var, v: Var
) -> bool:
    """Whether the constraint set entails ``u = v`` (proved, not guessed)."""

    witness = LinCon.make({u: 1, v: -1}, 0)
    return lia_check(eqs, les, diseqs + [witness]) == "unsat"
