"""The structured derivation recorder behind ``repro explain``.

One :class:`DerivationRecorder` rides along with a
:class:`~repro.consolidation.algorithm.Consolidator` and captures, for a
single pair merge, everything the calculus decided:

* every **rule application** (Assign/Step/Com/Seq, If 1–5, Loop 2/3,
  LoopDrop) as a :class:`RuleNode`; structural rules (the If and Loop
  family) nest their sub-derivations as children, mirroring the Ω′
  recursion, so the tree *is* the derivation of Figure 8;
* every **entailment** the context was asked (``Ψ ⊨ e``, provable
  equality/equivalence, the Loop 2/3 fusion goals) with the rendered
  ``Ψ``, the rendered query, the verdict, the wall time, and which fast
  path answered it (``smt`` / ``memo`` / ``precheck`` / ``syntactic``);
* every **cross-simplification rewrite** that changed an expression,
  with before/after text and the static cost delta;
* every **heuristic decision** — ``related`` accept/reject, the
  ``max_embed_size`` guard, commutativity.

Recording follows the repository's NULL-twin pattern
(:mod:`repro.telemetry.noop`): producers hand the recorder the
``Expr``/``Formula`` objects they decided on and the recorder renders
them (bounded, :mod:`repro.provenance.render`), so a call site is one
unguarded line and the shared :data:`NULL_RECORDER` — inert methods,
``enabled = False`` — renders and allocates **nothing** (asserted by
``tests/test_provenance.py``).

Everything recorded is a plain string/number dataclass: trees pickle
across the process-pool executor and serialise with ``to_dict`` for the
JSON/HTML reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.ast import Expr
from ..smt.terms import Formula
from .render import MAX_TEXT, format_expr, format_formula

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
    """Render one event argument.

    Text passes through; an expression or formula is rendered up to the
    shared report clamp; ``(template, *parts)`` is ``str.format`` over the
    rendered parts.
    """

    if isinstance(x, str):
        return x
    if isinstance(x, Expr):
        return format_expr(x)
    if isinstance(x, Formula):
        return format_formula(x, MAX_TEXT)
    if isinstance(x, tuple):
        return _fill(x[0], x[1:])
    return str(x)


def _fill(template: str, parts: tuple) -> str:
    return template.format(*map(_text, parts)) if parts else template


@dataclass
class Entailment:
    """One semantic question asked of the context ``Ψ``.

    ``kind`` names the judgment (``entails`` / ``entails-not`` /
    ``equal`` / ``iff`` / ``loop2-iff`` / ``loop3-exit`` …); ``source``
    records which layer answered it: ``smt`` (a real solver check),
    ``memo`` (the ``(Ψ, e)`` cache), ``precheck`` (the abstract-env
    interval fast path) or ``syntactic`` (no encoding — vacuously
    false).
    """

    kind: str
    psi: str
    query: str
    verdict: bool
    seconds: float
    source: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "psi": self.psi,
            "query": self.query,
            "verdict": self.verdict,
            "seconds": round(self.seconds, 6),
            "source": self.source,
        }


@dataclass
class Rewrite:
    """One accepted cross-simplification: ``before`` became ``after``."""

    site: str
    before: str
    after: str
    cost_before: int
    cost_after: int

    @property
    def cost_delta(self) -> int:
        return self.cost_after - self.cost_before

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "before": self.before,
            "after": self.after,
            "cost_before": self.cost_before,
            "cost_after": self.cost_after,
            "cost_delta": self.cost_delta,
        }


@dataclass
class Heuristic:
    """One strategy decision that shaped the derivation (not its soundness)."""

    kind: str
    detail: str
    accepted: bool

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail, "accepted": self.accepted}


@dataclass
class RuleNode:
    """One calculus-rule application and everything decided under it."""

    rule: str
    detail: str = ""
    entailments: list[Entailment] = field(default_factory=list)
    rewrites: list[Rewrite] = field(default_factory=list)
    heuristics: list[Heuristic] = field(default_factory=list)
    children: list["RuleNode"] = field(default_factory=list)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        doc: dict = {"rule": self.rule}
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

    def nodes(self):
        yield from self.root.walk()

    def rule_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes():
            if node.rule != "Ω":
                counts[node.rule] = counts.get(node.rule, 0) + 1
        return counts

    def entailments(self) -> list[Entailment]:
        out: list[Entailment] = []
        for node in self.nodes():
            out.extend(node.entailments)
        return out

    def rewrites(self) -> list[Rewrite]:
        out: list[Rewrite] = []
        for node in self.nodes():
            out.extend(node.rewrites)
        return out

    def heuristics(self) -> list[Heuristic]:
        out: list[Heuristic] = []
        for node in self.nodes():
            out.extend(node.heuristics)
        return out

    def slowest_entailments(self, n: int = 10) -> list[Entailment]:
        return sorted(self.entailments(), key=lambda e: -e.seconds)[:n]

    def smt_seconds(self) -> float:
        return sum(e.seconds for e in self.entailments() if e.source == "smt")

    def to_dict(self, include_timings: bool = True) -> dict:
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


def derivation_summary(trees) -> dict:
    """Aggregate a batch of :class:`DerivationTree` into one JSON doc.

    The service's ``/v1/explain`` (and the equivalence suite) want a
    compact account of a patch — how many pair merges, which calculus
    rules fired, how much solver time — without shipping whole trees.
    """

    trees = list(trees)
    rules: dict[str, int] = {}
    entailments = rewrites = 0
    smt_seconds = 0.0
    for tree in trees:
        for rule, count in tree.rule_counts().items():
            rules[rule] = rules.get(rule, 0) + count
        entailments += len(tree.entailments())
        rewrites += len(tree.rewrites())
        smt_seconds += tree.smt_seconds()
    return {
        "pairs": len(trees),
        "rules": dict(sorted(rules.items())),
        "entailments": entailments,
        "rewrites": rewrites,
        "smt_seconds": round(smt_seconds, 6),
    }


def _strip_timings(doc):
    """Zero every ``seconds`` field (golden-file stability)."""

    if isinstance(doc, dict):
        return {
            k: (0.0 if k == "seconds" else _strip_timings(v)) for k, v in doc.items()
        }
    if isinstance(doc, list):
        return [_strip_timings(v) for v in doc]
    return doc


class _RuleScope:
    """Context manager popping one structural rule node off the stack."""

    __slots__ = ("_recorder",)

    def __init__(self, recorder: "DerivationRecorder") -> None:
        self._recorder = recorder

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder._pop()
        return False


class DerivationRecorder:
    """Accumulates :class:`DerivationTree` objects, one per pair merge.

    The recorder keeps a stack of open :class:`RuleNode` scopes; the
    consolidator pushes a scope around each structural rule's
    sub-derivation and appends leaf rules directly, so event producers
    (the simplifier context, the loop-fusion prover) only ever talk to
    ``current`` — they need no knowledge of tree shape.
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

    def rule(self, name: str, detail: str = "", *parts: object) -> _RuleScope:
        """Open a structural rule scope; sub-derivations nest under it.

        ``detail`` is a ``str.format`` template over ``parts`` (see
        :func:`_text`), here and on :meth:`leaf` / :meth:`heuristic`.
        """

        node = RuleNode(name, _fill(detail, parts))
        if self._stack:
            self._stack[-1].children.append(node)
        self._stack.append(node)
        return _RuleScope(self)

    def leaf(self, name: str, detail: str = "", *parts: object) -> None:
        """Record a non-structural rule application (Assign/Step/Com/…)."""

        if self._stack:
            self._stack[-1].children.append(RuleNode(name, _fill(detail, parts)))

    def _pop(self) -> None:
        if len(self._stack) > 1:
            self._stack.pop()

    # -- decision events -----------------------------------------------------

    def entailment(
        self,
        kind: str,
        psi: object,
        query: object,
        verdict: bool,
        seconds: float,
        source: str,
    ) -> None:
        node = self.current
        if node is not None:
            node.entailments.append(
                Entailment(kind, _text(psi), _text(query), bool(verdict), seconds, source)
            )

    def rewrite(
        self, site: str, before: object, after: object, cost_before: int, cost_after: int
    ) -> None:
        node = self.current
        if node is not None:
            node.rewrites.append(
                Rewrite(site, _text(before), _text(after), cost_before, cost_after)
            )

    def heuristic(self, kind: str, detail: str, accepted: bool, *parts: object) -> None:
        node = self.current
        if node is not None:
            node.heuristics.append(Heuristic(kind, _fill(detail, parts), accepted))


class _NullScope:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class NullRecorder:
    """The zero-cost twin: every hook is inert, ``enabled`` is False.

    Rendering happens inside the real recorder, so with this one a
    decision point costs one method call and nothing else — the same
    discipline :mod:`repro.telemetry.noop` enforces for metrics.
    """

    __slots__ = ()
    enabled = False
    trees: tuple = ()
    current = None

    def begin_pair(self, left, right) -> None:
        pass

    def end_pair(self, merged, seconds) -> None:
        return None

    def rule(self, name, detail="", *parts) -> _NullScope:
        return _NULL_SCOPE

    def leaf(self, name, detail="", *parts) -> None:
        pass

    def entailment(self, kind, psi, query, verdict, seconds, source) -> None:
        pass

    def rewrite(self, site, before, after, cost_before, cost_after) -> None:
        pass

    def heuristic(self, kind, detail, accepted, *parts) -> None:
        pass


NULL_RECORDER = NullRecorder()
