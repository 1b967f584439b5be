"""Congruence closure for equality with uninterpreted functions (EUF).

Given a set of asserted equalities between terms, computes the congruence
closure: the smallest equivalence relation containing the equalities and
closed under ``x1=y1 .. xk=yk  ==>  f(xs)=f(ys)``.  Asserted disequalities
are then checked against the closure.

The implementation is the classic union-find + signature-table algorithm
(Downey–Sethi–Tarjan / Nelson–Oppen style) over a term DAG.  It is used in
two places:

* inside the theory checker (:mod:`repro.smt.combine`) to detect EUF
  conflicts and to export the equivalence classes of function applications
  so that the arithmetic solver can merge their proxy variables, and
* by the cross-simplifier to discover that two syntactically different
  calls must return the same value under the current context.

Only ground reasoning is needed — the fragment is quantifier free.
"""

from __future__ import annotations

from .terms import App, Lin, Num, Sym, Term

__all__ = ["CongruenceClosure"]


class CongruenceClosure:
    """An incremental congruence-closure engine over integer terms.

    ``Lin`` terms are treated as opaque *arithmetic* nodes: congruence over
    ``+`` is handled by registering a Lin node as a virtual application of
    the interpreted symbol ``@lin`` applied to its atoms — so
    ``x = y  ==>  x + 1 = y + 1`` is derived congruentially, while deeper
    arithmetic consequences are left to the LIA engine.
    """

    def __init__(self) -> None:
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []
        self._parent: list[int] = []
        self._rank: list[int] = []
        self._members: list[list[int]] = []  # class members (at representative)
        self._uses: list[list[int]] = []  # parent applications (at representative)
        self._sig: dict[tuple[str, tuple[int, ...]], int] = {}  # signature -> node id
        self._children: list[tuple[str, tuple[int, ...]] | None] = []
        self._pending: list[tuple[int, int]] = []
        self._const: list[int | None] = []  # the class numeral (at representative)
        self._conflict = False  # two distinct numerals were merged

    # -- term registration -----------------------------------------------------

    def add_term(self, t: Term) -> int:
        """Intern ``t`` (and all subterms) into the DAG; returns its node id."""

        known = self._ids.get(t)
        if known is not None:
            return known
        if isinstance(t, (Num, Sym)):
            node = self._new_node(t, None)
        elif isinstance(t, App):
            arg_ids = tuple(self.add_term(a) for a in t.args)
            node = self._new_node(t, (t.func, arg_ids))
        elif isinstance(t, Lin):
            # Register as @lin with the sorted (coef, atom) signature so that
            # replacing an atom by an equal atom yields a congruent Lin.
            parts: list[int] = []
            key_parts: list[str] = [str(t.const)]
            for atom, coef in t.coeffs:
                parts.append(self.add_term(atom))
                key_parts.append(str(coef))
            node = self._new_node(t, (f"@lin:{':'.join(key_parts)}", tuple(parts)))
        else:
            raise TypeError(f"not a term: {t!r}")
        self._ids[t] = node
        if self._children[node] is not None:
            self._install_signature(node)
        self._flush()
        return node

    def _new_node(self, t: Term, children: tuple[str, tuple[int, ...]] | None) -> int:
        node = len(self._terms)
        self._terms.append(t)
        self._parent.append(node)
        self._rank.append(0)
        self._members.append([node])
        self._uses.append([])
        self._children.append(children)
        self._const.append(t.value if isinstance(t, Num) else None)
        return node

    def _install_signature(self, node: int) -> None:
        children = self._children[node]
        assert children is not None
        func, arg_ids = children
        sig = (func, tuple(self._find(a) for a in arg_ids))
        existing = self._sig.get(sig)
        if existing is not None and self._find(existing) != self._find(node):
            self._pending.append((existing, node))
        else:
            self._sig[sig] = node
        for a in arg_ids:
            self._uses[self._find(a)].append(node)

    # -- union-find --------------------------------------------------------------

    def _find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        elif self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        # Move rb's class into ra and re-hash the applications using rb.
        self._parent[rb] = ra
        self._members[ra].extend(self._members[rb])
        self._members[rb] = []
        moved = self._const[rb]
        if moved is not None:
            kept = self._const[ra]
            if kept is None:
                self._const[ra] = moved
            elif kept != moved:
                self._conflict = True
        affected = self._uses[rb]
        self._uses[rb] = []
        for node in affected:
            children = self._children[node]
            assert children is not None
            func, arg_ids = children
            sig = (func, tuple(self._find(x) for x in arg_ids))
            existing = self._sig.get(sig)
            if existing is not None and self._find(existing) != self._find(node):
                self._pending.append((existing, node))
            else:
                self._sig[sig] = node
            self._uses[ra].append(node)

    def _flush(self) -> None:
        while self._pending:
            a, b = self._pending.pop()
            self._union(a, b)

    # -- public API ---------------------------------------------------------------

    def assert_equal(self, s: Term, t: Term) -> None:
        """Assert ``s = t`` and propagate congruences."""

        a = self.add_term(s)
        b = self.add_term(t)
        self._union(a, b)
        self._flush()

    def are_equal(self, s: Term, t: Term) -> bool:
        """Whether ``s = t`` follows from the asserted equalities."""

        a = self.add_term(s)
        b = self.add_term(t)
        return self._find(a) == self._find(b)

    def root_id(self, t: Term) -> int:
        """The union-find root id of ``t``'s class (stable between unions)."""

        return self._find(self.add_term(t))

    def representative(self, t: Term) -> Term:
        """A canonical member of ``t``'s class (stable within one closure)."""

        node = self.add_term(t)
        root = self._find(node)
        return self._terms[min(self._members[root])]

    def equivalence_classes(self) -> list[list[Term]]:
        """All non-singleton classes, as term lists."""

        out: list[list[Term]] = []
        for node in range(len(self._terms)):
            if self._find(node) == node and len(self._members[node]) > 1:
                out.append([self._terms[i] for i in self._members[node]])
        return out

    def class_of(self, t: Term) -> list[Term]:
        node = self.add_term(t)
        root = self._find(node)
        return [self._terms[i] for i in self._members[root]]

    def terms(self) -> list[Term]:
        """Every interned term (subterms included), in registration order."""

        return self._terms

    def has_constant_conflict(self) -> bool:
        """Whether two distinct numerals ended up in the same class."""

        return self._conflict

    def constant_of(self, t: Term) -> int | None:
        """The numeral merged with ``t``'s class, if any."""

        return self._const[self._find(self.add_term(t))]
