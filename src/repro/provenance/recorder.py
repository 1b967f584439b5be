"""The structured derivation recorder behind ``repro explain``.

One :class:`DerivationRecorder` rides along with a
:class:`~repro.consolidation.algorithm.Consolidator` and captures, for a
single pair merge, everything the calculus decided:

* every **rule application** (Assign/Step/Com/Seq, If 1–5, Loop 2/3,
  LoopDrop) as a :class:`RuleNode`; structural rules (the If and Loop
  family) nest their sub-derivations as children, mirroring the Ω′
  recursion, so the tree *is* the derivation of Figure 8;
* every **entailment** the context was asked (``Ψ ⊨ e``, provable
  equality/equivalence, the Loop 2/3 fusion goals) with the hypothesis
  sent to the solver, the query, the store bindings the query read, the
  verdict, the wall time, and which fast path answered it (``smt`` /
  ``memo`` / ``precheck`` / ``syntactic``);
* every **cross-simplification rewrite** that changed an expression,
  with before/after and the static cost delta;
* every **heuristic decision** — ``related`` accept/reject, the
  ``MAX_EMBED_SIZE`` guard, commutativity.

Recording follows the repository's NULL-twin pattern
(:mod:`repro.telemetry.noop`): producers hand over the ``Expr``/``Formula``
objects they decided on, so a call site is one unguarded line, and the
shared :data:`NULL_RECORDER` (inert, ``enabled = False``) allocates
**nothing**.  The real recorder keeps those immutable nodes by reference
and renders text (bounded, :mod:`repro.provenance.render`) only when a
report first reads a field, so a service that records every patch and
never reads a report renders nothing.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..lang.ast import Expr
from ..smt.terms import Formula
from .render import MAX_TEXT, format_expr, format_formula, format_store

__all__ = [
    "Entailment",
    "Rewrite",
    "Heuristic",
    "RuleNode",
    "DerivationTree",
    "DerivationRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "derivation_summary",
]


def _text(x: object) -> str:
    """Render one held event argument.

    Text passes through; an expression or formula is rendered up to the
    shared report clamp; a frozenset holds store bindings
    (:func:`~repro.provenance.render.format_store`); ``(template, *parts)``
    is ``str.format`` over the rendered parts.
    """

    if isinstance(x, str):
        return x
    if isinstance(x, Expr):
        return format_expr(x)
    if isinstance(x, Formula):
        return format_formula(x, MAX_TEXT)
    if isinstance(x, frozenset):
        return format_store(x)
    if isinstance(x, tuple):
        return _fill(x[0], x[1:])
    return str(x)


def _fill(template: str, parts: tuple[object, ...]) -> str:
    return template.format(*map(_text, parts)) if parts else template


def _rendered(slot: str) -> property:
    """The text of ``slot``, which holds what a producer handed over until
    the first read renders it (:func:`_text`) in place."""

    def read(self: Any) -> str:
        held = getattr(self, slot)
        if not isinstance(held, str):
            held = _text(held)
            setattr(self, slot, held)
        return held

    return property(read)


class _Event:
    """A recorded event.  Its slots are its constructor's parameters; a
    slot ``_x`` holds what the producer handed over and ``x`` reads it as
    text (:func:`_rendered`)."""

    __slots__: tuple[str, ...] = ()

    def _fields(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in (s.lstrip("_") for s in self.__slots__)}

    def to_dict(self) -> dict[str, Any]:
        return self._fields()


class Entailment(_Event):
    """One semantic question asked of the context ``Ψ``.

    ``kind`` names the judgment (``entails`` / ``entails-not`` /
    ``equal`` / ``iff`` / ``loop2-iff`` / ``loop3-exit`` …); ``psi`` is
    the hypothesis the solver got (the path condition's cone of influence
    for the goal); ``store`` the bindings of the locals the query reads,
    through which it was encoded.  ``source`` records which layer answered
    it: ``smt`` (a real solver check), ``memo`` (the ``(Ψ, store reads,
    e)`` cache), ``precheck`` (the goal folded to a constant through the
    store) or ``syntactic`` (no encoding — vacuously false).
    """

    __slots__ = ("kind", "_psi", "_query", "_store", "verdict", "seconds", "source")
    psi = _rendered("_psi")
    query = _rendered("_query")
    store = _rendered("_store")

    def __init__(
        self,
        kind: str,
        psi: object,
        query: object,
        verdict: bool,
        seconds: float,
        source: str,
        store: object = "",
    ) -> None:
        self.kind = kind
        self._psi = psi
        self._query = query
        self._store = store
        self.verdict = verdict
        self.seconds = seconds
        self.source = source

    def to_dict(self) -> dict[str, Any]:
        return {**self._fields(), "seconds": round(self.seconds, 6)}


class Rewrite(_Event):
    """One accepted cross-simplification: ``before`` became ``after``."""

    __slots__ = ("site", "_before", "_after", "cost_before", "cost_after")
    before = _rendered("_before")
    after = _rendered("_after")

    def __init__(
        self, site: str, before: object, after: object, cost_before: int, cost_after: int
    ) -> None:
        self.site = site
        self._before = before
        self._after = after
        self.cost_before = cost_before
        self.cost_after = cost_after

    @property
    def cost_delta(self) -> int:
        return self.cost_after - self.cost_before

    def to_dict(self) -> dict[str, Any]:
        return {**self._fields(), "cost_delta": self.cost_delta}


class Heuristic(_Event):
    """One strategy decision that shaped the derivation (not its soundness)."""

    __slots__ = ("kind", "_detail", "accepted")
    detail = _rendered("_detail")

    def __init__(self, kind: str, detail: object, accepted: bool) -> None:
        self.kind = kind
        self._detail = detail
        self.accepted = accepted


class RuleNode:
    """One calculus-rule application and everything decided under it."""

    __slots__ = ("rule", "_detail", "entailments", "rewrites", "heuristics", "children")
    detail = _rendered("_detail")

    def __init__(self, rule: str, detail: object = "") -> None:
        self.rule = rule
        self._detail = detail
        self.entailments: list[Entailment] = []
        self.rewrites: list[Rewrite] = []
        self.heuristics: list[Heuristic] = []
        self.children: list[RuleNode] = []

    def walk(self) -> Iterator[RuleNode]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"rule": self.rule}
        if self.detail:
            doc["detail"] = self.detail
        if self.entailments:
            doc["entailments"] = [e.to_dict() for e in self.entailments]
        if self.rewrites:
            doc["rewrites"] = [r.to_dict() for r in self.rewrites]
        if self.heuristics:
            doc["heuristics"] = [h.to_dict() for h in self.heuristics]
        if self.children:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc


@dataclass
class DerivationTree:
    """The complete derivation of one pair consolidation."""

    left: str
    right: str
    merged: str = ""
    seconds: float = 0.0
    root: RuleNode = field(default_factory=lambda: RuleNode("Ω"))

    # -- queries -------------------------------------------------------------

    def nodes(self) -> Iterator[RuleNode]:
        yield from self.root.walk()

    def rule_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes():
            if node.rule != "Ω":
                counts[node.rule] = counts.get(node.rule, 0) + 1
        return counts

    def entailments(self) -> list[Entailment]:
        return [e for node in self.nodes() for e in node.entailments]

    def rewrites(self) -> list[Rewrite]:
        return [r for node in self.nodes() for r in node.rewrites]

    def heuristics(self) -> list[Heuristic]:
        return [h for node in self.nodes() for h in node.heuristics]

    def slowest_entailments(self, n: int = 10) -> list[Entailment]:
        return sorted(self.entailments(), key=lambda e: -e.seconds)[:n]

    def smt_seconds(self) -> float:
        return sum(e.seconds for e in self.entailments() if e.source == "smt")

    def to_dict(self, include_timings: bool = True) -> dict[str, Any]:
        doc = {
            "left": self.left,
            "right": self.right,
            "merged": self.merged,
            "seconds": round(self.seconds, 6),
            "rule_counts": self.rule_counts(),
            "root": self.root.to_dict(),
        }
        if not include_timings:
            doc = _strip_timings(doc)
        return doc


def derivation_summary(trees: Iterable[DerivationTree]) -> dict[str, Any]:
    """Aggregate a batch of :class:`DerivationTree` into one JSON doc.

    The service's ``/v1/explain`` (and the equivalence suite) want a
    compact account of a patch — how many pair merges, which calculus
    rules fired, how much solver time — without shipping whole trees.
    """

    batch = list(trees)
    rules: dict[str, int] = {}
    entailments = rewrites = 0
    smt_seconds = 0.0
    for tree in batch:
        for rule, count in tree.rule_counts().items():
            rules[rule] = rules.get(rule, 0) + count
        entailments += len(tree.entailments())
        rewrites += len(tree.rewrites())
        smt_seconds += tree.smt_seconds()
    return {
        "pairs": len(batch),
        "rules": dict(sorted(rules.items())),
        "entailments": entailments,
        "rewrites": rewrites,
        "smt_seconds": round(smt_seconds, 6),
    }


def _strip_timings(doc: Any) -> Any:
    """Zero every ``seconds`` field (golden-file stability)."""

    if isinstance(doc, dict):
        return {k: (0.0 if k == "seconds" else _strip_timings(v)) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_strip_timings(v) for v in doc]
    return doc


class DerivationRecorder:
    """Accumulates :class:`DerivationTree` objects, one per pair merge.

    The recorder keeps a stack of open :class:`RuleNode` scopes; the
    consolidator pushes a scope around each structural rule's
    sub-derivation (``with recorder.rule(...)``, the recorder being its
    own context manager) and appends leaf rules directly, so event
    producers (the simplifier context, the loop-fusion prover) need no
    knowledge of tree shape.  Events keep their arguments as handed over.
    """

    enabled = True

    def __init__(self) -> None:
        self.trees: list[DerivationTree] = []
        self._tree: DerivationTree | None = None
        self._stack: list[RuleNode] = []

    # -- pair lifecycle ------------------------------------------------------

    def begin_pair(self, left: str, right: str) -> None:
        self._tree = DerivationTree(left=left, right=right)
        self._stack = [self._tree.root]

    def end_pair(self, merged: str, seconds: float) -> DerivationTree | None:
        tree = self._tree
        if tree is None:
            return None
        tree.merged = merged
        tree.seconds = seconds
        self.trees.append(tree)
        self._tree = None
        self._stack = []
        return tree

    @property
    def current(self) -> RuleNode | None:
        return self._stack[-1] if self._stack else None

    # -- rule events ---------------------------------------------------------

    def rule(self, name: str, detail: str = "", *parts: object) -> DerivationRecorder:
        """Open a structural rule scope; sub-derivations nest under it.

        ``detail`` is a ``str.format`` template over ``parts``, filled
        when it is read (see :func:`_text`), here and on :meth:`leaf` /
        :meth:`heuristic`.
        """

        node = RuleNode(name, (detail, *parts) if parts else detail)
        if self._stack:
            self._stack[-1].children.append(node)
        self._stack.append(node)
        return self

    def __enter__(self) -> DerivationRecorder:
        return self

    def __exit__(self, *exc: object) -> None:
        if len(self._stack) > 1:
            self._stack.pop()

    def leaf(self, name: str, detail: str = "", *parts: object) -> None:
        """Record a non-structural rule application (Assign/Step/Com/…)."""

        if self._stack:
            self._stack[-1].children.append(RuleNode(name, (detail, *parts) if parts else detail))

    # -- decision events -----------------------------------------------------

    def entailment(
        self,
        kind: str,
        psi: object,
        query: object,
        verdict: bool,
        seconds: float,
        source: str,
        store: object = "",
    ) -> None:
        if self._stack:
            self._stack[-1].entailments.append(
                Entailment(kind, psi, query, bool(verdict), seconds, source, store)
            )

    def rewrite(
        self, site: str, before: object, after: object, cost_before: int, cost_after: int
    ) -> None:
        if self._stack:
            self._stack[-1].rewrites.append(Rewrite(site, before, after, cost_before, cost_after))

    def heuristic(self, kind: str, detail: str, accepted: bool, *parts: object) -> None:
        if self._stack:
            self._stack[-1].heuristics.append(
                Heuristic(kind, (detail, *parts) if parts else detail, accepted)
            )


_NULL_SCOPE = nullcontext()


class NullRecorder:
    """The zero-cost twin of :class:`DerivationRecorder`: every hook takes
    the same events and is inert, ``enabled`` is False — the discipline
    :mod:`repro.telemetry.noop` enforces for metrics."""

    __slots__ = ()
    enabled = False
    trees: tuple[DerivationTree, ...] = ()
    current = None

    def begin_pair(self, left: str, right: str) -> None:
        pass

    def end_pair(self, merged: str, seconds: float) -> None:
        return None

    def rule(self, name: str, detail: str = "", *parts: object) -> nullcontext[None]:
        return _NULL_SCOPE

    def leaf(self, name: str, detail: str = "", *parts: object) -> None:
        pass

    def entailment(self, *event: object) -> None:
        pass

    def rewrite(self, *event: object) -> None:
        pass

    def heuristic(self, kind: str, detail: str, accepted: bool, *parts: object) -> None:
        pass


NULL_RECORDER = NullRecorder()
