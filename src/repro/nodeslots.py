"""Derived facts kept on immutable nodes, for ``repro.lang.ast`` and ``repro.smt.terms``.

Both node families are frozen, slotted dataclasses, so a fact derived from a
node can never go stale.  It is kept *on the node*, in an extra slot declared
with :func:`slot` — not an ``__init__`` argument, not compared, not hashed,
not printed — and filled at most once:

* :func:`cached` caches the structural hash and keeps every slot inside the
  process that filled it;
* :func:`derived` turns a function of a node into a read of one of its slots.

There is nothing to invalidate and no table beside the nodes: the caches die
with the node.  Fills are idempotent — two threads racing on an empty slot
store the same value — so threads sharing nodes need no lock.
"""

from __future__ import annotations

from dataclasses import field, fields
from functools import wraps
from typing import Any, Callable, Iterable, Optional, TypeVar

__all__ = ["slot", "cached", "derived", "union"]

_T = TypeVar("_T")
_N = TypeVar("_N")


def slot() -> Any:
    """A lazily filled cache slot: not an ``__init__`` argument, not compared,
    not hashed, not printed."""

    return field(default=None, init=False, repr=False, compare=False)


def cached(cls: type[_T]) -> type[_T]:
    """Cache the dataclass's structural hash in the node's ``_hash`` slot.

    Also pickles the node through its constructor, so no cache slot crosses
    a process boundary: ``str`` hashes are salted per interpreter, and a
    hash cached in one process would poison every dict lookup in the
    process that unpickles the node.
    """

    node: Any = cls
    structural_hash: Callable[[Any], int] = node.__hash__
    init_names = tuple(f.name for f in fields(node) if f.init)

    def cached_hash(self: Any) -> int:
        h: Optional[int] = self._hash
        if h is None:
            h = structural_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    def reduce(self: Any) -> tuple[Any, ...]:
        return cls, tuple(getattr(self, name) for name in init_names)

    setattr(cls, "__hash__", cached_hash)
    setattr(cls, "__reduce__", reduce)
    return cls


_NO_SLOT = object()


def derived(name: str) -> Callable[[Callable[[_N], _T]], Callable[[_N], _T]]:
    """Make ``compute(node)`` a read of the node's slot ``name``.

    The slot is filled by the first call and read by every later one.
    ``compute`` must be a pure function of the node's compared fields that
    never returns ``None``; written recursively over the children it costs
    one step per node, because the children answer from their own slots.
    A node whose class has no such slot (a leaf) is computed on every call.
    """

    def wrap(compute: Callable[[_N], _T]) -> Callable[[_N], _T]:
        @wraps(compute)
        def read(node: _N) -> _T:
            value: _T
            held: Any = getattr(node, name, _NO_SLOT)
            if held is None:
                value = compute(node)
                object.__setattr__(node, name, value)
            elif held is _NO_SLOT:
                value = compute(node)
            else:
                value = held
            return value

        return read

    return wrap


_NOTHING: frozenset[Any] = frozenset()


def union(parts: Iterable[frozenset[_T]]) -> frozenset[_T]:
    """The union of ``parts``; a lone non-empty part is returned as is, so a
    parent whose facts all come from one child shares that child's set."""

    full = [part for part in parts if part]
    if len(full) > 1:
        return full[0].union(*full[1:])
    return full[0] if full else _NOTHING
