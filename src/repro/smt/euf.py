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

The closure is *backtrackable*: :meth:`CongruenceClosure.push` sets a mark
and :meth:`CongruenceClosure.pop` undoes everything done since — unions,
signature-table writes, use-list entries and the registration of nodes — so
the theory checker keeps one closure under its assertion stack instead of
building one per check (DESIGN.md §14).  ``_find`` does no path compression:
with union by rank the chains are logarithmic, and a parent pointer that is
only ever written by a union is what makes a union undoable in O(its size).
"""

from __future__ import annotations

from typing import Any

from .terms import App, Lin, Num, Sym, Term

__all__ = ["CongruenceClosure"]

# Undo-trail entry kinds (first element of the entry).
_SIG, _USE, _UNION = 0, 1, 2


class CongruenceClosure:
    """An incremental congruence-closure engine over integer terms.

    ``Lin`` terms are treated as opaque *arithmetic* nodes: congruence over
    ``+`` is handled by registering a Lin node as a virtual application of
    the interpreted symbol ``@lin`` applied to its atoms — so
    ``x = y  ==>  x + 1 = y + 1`` is derived congruentially, while deeper
    arithmetic consequences are left to the LIA engine.

    Node ids are registration order and roots are decided by union order and
    rank alone, so a closure popped back to a mark and extended is
    indistinguishable — same node ids, same ``root_id``s — from one built
    from scratch by the surviving operations followed by the new ones.
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
        self._trail: list[tuple[Any, ...]] = []  # how to undo, oldest first
        self._marks: list[tuple[int, int]] = []  # (trail length, node count) per push

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
        for root in self._file(node):
            self._uses[root].append(node)
            self._trail.append((_USE, root))

    def _file(self, node: int) -> tuple[int, ...]:
        """Enter application ``node`` in the signature table under the current
        roots of its arguments (returned) — or, if another class already owns
        that signature, queue the congruence."""

        children = self._children[node]
        assert children is not None
        func, arg_ids = children
        roots = tuple(map(self._find, arg_ids))
        sig = (func, roots)
        existing = self._sig.get(sig)
        if existing is not None and self._find(existing) != self._find(node):
            self._pending.append((existing, node))
        else:
            self._trail.append((_SIG, sig, existing))
            self._sig[sig] = node
        return roots

    # -- union-find --------------------------------------------------------------

    def _find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            x = parent[x]
        return x

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        bumped = False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        elif self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
            bumped = True
        members, uses = self._members[ra], self._uses[ra]
        kept = self._const[ra]
        self._trail.append(
            (_UNION, ra, rb, bumped, kept, self._conflict, len(members), len(uses))
        )
        # Move rb's class into ra and re-hash the applications using rb.
        self._parent[rb] = ra
        members.extend(self._members[rb])
        self._members[rb] = []
        moved = self._const[rb]
        if moved is not None:
            if kept is None:
                self._const[ra] = moved
            elif kept != moved:
                self._conflict = True
        affected = self._uses[rb]
        self._uses[rb] = []
        for node in affected:
            self._file(node)
            uses.append(node)

    def _flush(self) -> None:
        while self._pending:
            a, b = self._pending.pop()
            self._union(a, b)

    # -- backtracking ------------------------------------------------------------

    def push(self) -> None:
        """Set a mark: the next :meth:`pop` returns the closure to this state."""

        self._marks.append((len(self._trail), len(self._terms)))

    def pop(self) -> None:
        """Undo every assertion *and registration* since the matching
        :meth:`push`: classes, numerals, the conflict flag, the signature
        table and the node table are as they were."""

        trail_length, nodes = self._marks.pop()
        trail = self._trail
        while len(trail) > trail_length:
            entry = trail.pop()
            kind = entry[0]
            if kind == _SIG:
                _, sig, previous = entry
                if previous is None:
                    del self._sig[sig]
                else:
                    self._sig[sig] = previous
            elif kind == _USE:
                self._uses[entry[1]].pop()
            else:
                _, ra, rb, bumped, const, conflict, n_members, n_uses = entry
                # Whatever followed the union is already undone, so the tails
                # are exactly what the union moved, in the order it moved them.
                members, uses = self._members[ra], self._uses[ra]
                self._members[rb] = members[n_members:]
                del members[n_members:]
                self._uses[rb] = uses[n_uses:]
                del uses[n_uses:]
                self._const[ra] = const
                self._conflict = conflict
                self._parent[rb] = rb
                if bumped:
                    self._rank[ra] -= 1
        if len(self._terms) > nodes:
            for t in self._terms[nodes:]:
                del self._ids[t]
            for column in (
                self._terms, self._parent, self._rank, self._members,
                self._uses, self._children, self._const,
            ):
                del column[nodes:]

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

    def handle(self, t: Term) -> tuple[int, int | None]:
        """``(root_id(t), constant_of(t))`` in one lookup: what the LIA rows
        are built from, asked once per atom per literal per check."""

        root = self._find(self.add_term(t))
        return root, self._const[root]

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
