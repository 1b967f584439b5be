"""Runtime support for the compiled execution backend.

:mod:`repro.lang.compile` turns a Figure-1 program into Python source and
``exec``s it into a closure.  The emitted code cannot carry arbitrary
objects in its text, so everything it needs at run time — library-call
wrappers that preserve the interpreter's error contract, and the
translation of a Python ``UnboundLocalError`` back into the language-level
"unbound variable" error — is bound into the closure's global namespace
from this module.

Keeping these helpers separate from the compiler also keeps the import
graph acyclic: the compiler imports the runtime, never the reverse.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping

from .interp import InterpError

__all__ = ["make_lib_call", "unbound_error"]

_QUOTED = re.compile(r"'(\w+)'")


def make_lib_call(name: str, fn: Callable[..., object]) -> Callable[..., object]:
    """Wrap a library function so failures surface as :class:`InterpError`.

    Mirrors ``Interpreter._eval_call``: only the call itself is guarded —
    argument evaluation errors propagate with their own diagnoses.
    """

    def _call(*vals: object) -> object:
        try:
            return fn(*vals)
        except Exception as exc:  # noqa: BLE001 - surface as InterpError
            raise InterpError(f"library call {name} failed: {exc}") from exc

    return _call


def unbound_error(exc: BaseException, source_names: Mapping[str, str]) -> InterpError:
    """Translate a ``NameError``/``UnboundLocalError`` from compiled code
    into the interpreter's unbound-variable error, mapping the mangled slot
    name back to the source-program name."""

    # Not ``exc.name``: CPython leaves it ``None`` on ``UnboundLocalError``
    # (3.11 and before), while every supported version quotes the slot in
    # the message.
    quoted = _QUOTED.search(str(exc))
    slot = quoted.group(1) if quoted else None
    name = source_names.get(slot, slot)
    return InterpError(f"unbound variable {name!r}")
