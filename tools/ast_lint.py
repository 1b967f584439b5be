#!/usr/bin/env python3
"""A stdlib-only stand-in for the part of the CI ratchet that can run anywhere.

``ruff`` and ``mypy --strict`` are the authoritative checks (the
``static-checks`` job of ``.github/workflows/ci.yml``), but neither is
installed in the build container, so a PR written there ships unverified.
This covers the findings those tools most often report on a rewrite, with
nothing but :mod:`ast` and :mod:`tokenize`:

* ``E501`` — a line longer than ``tool.ruff.line-length`` in ``pyproject.toml``;
* ``F401`` — a name imported and never used (nor listed in ``__all__``);
* ``ANN``  — a public ``def`` (module level, or a method of a public class)
  with an unannotated parameter or no return annotation;
* ``type-arg`` — a bare generic in an annotation (``dict``, ``list``,
  ``Callable`` … without parameters), which ``mypy --strict`` rejects;
* ``type-ignore`` — a ``# type: ignore`` comment: the ratchet files carry none.

usage: ``python tools/ast_lint.py FILE [FILE ...]``; exit status 1 on findings.
A line carrying ``# noqa`` is skipped.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Iterator, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
Finding = tuple[int, str, str]  # line, code, message


def line_length(pyproject: Path = ROOT / "pyproject.toml") -> int:
    """``tool.ruff.line-length`` (``tomllib`` is 3.11+, tier-1 runs on 3.10 too)."""

    section = re.search(r"^\[tool\.ruff\]$(.*?)(?=^\[|\Z)", pyproject.read_text(), re.M | re.S)
    value = re.search(r"^line-length\s*=\s*(\d+)", section.group(1) if section else "", re.M)
    if value is None:
        raise ValueError(f"{pyproject}: no tool.ruff.line-length")
    return int(value.group(1))


def long_lines(source: str, limit: int) -> Iterator[Finding]:
    for number, line in enumerate(source.splitlines(), start=1):
        if len(line) > limit:
            yield number, "E501", f"line too long ({len(line)} > {limit})"


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    """Every annotation expression, and the parse of every quoted part of one
    (``x: "Call"`` holds a string, not a ``Name``), at the annotation's line."""

    for node in ast.walk(tree):
        annotation: Optional[ast.expr] = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        if annotation is None:
            continue
        yield annotation
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    quoted = ast.parse(sub.value, mode="eval").body
                except SyntaxError:
                    continue
                for inner in ast.walk(quoted):
                    ast.copy_location(inner, sub)
                yield quoted


def _annotation_names(tree: ast.AST) -> Iterator[str]:
    """Names inside string annotations, which ``ast.walk(tree)`` does not see."""

    for annotation in _annotations(tree):
        yield from (n.id for n in ast.walk(annotation) if isinstance(n, ast.Name))


def unused_imports(tree: ast.Module) -> Iterator[Finding]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in used:
                    yield node.lineno, "F401", f"{alias.name!r} imported but unused"


def _unannotated(fn: ast.FunctionDef | ast.AsyncFunctionDef, method: bool) -> list[str]:
    args = fn.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    named = [p for p in params if p is not None]
    if method and named and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
    ):
        named = named[1:]  # self / cls
    missing = [p.arg for p in named if p.annotation is None]
    if fn.returns is None:
        missing.append("return")
    return missing


def unannotated_public_defs(tree: ast.Module) -> Iterator[Finding]:
    def scan(body: Sequence[ast.stmt], method: bool) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from scan(node.body, method=True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if node.name.startswith("_") and not dunder:
                    continue
                missing = _unannotated(node, method)
                if missing:
                    yield node.lineno, "ANN", f"{node.name}: unannotated {', '.join(missing)}"

    yield from scan(tree.body, method=False)


# What ``mypy --strict`` (``disallow_any_generics``) wants parameters for.
GENERICS = frozenset(
    "dict list set frozenset tuple type Dict List Set FrozenSet Tuple Type Callable "
    "Iterable Iterator Sequence Mapping MutableMapping Generator Counter OrderedDict "
    "defaultdict deque".split()
)


def bare_generics(tree: ast.Module) -> Iterator[Finding]:
    for annotation in _annotations(tree):
        subscripted = {
            id(node.value) for node in ast.walk(annotation) if isinstance(node, ast.Subscript)
        }
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name) and node.id in GENERICS and id(node) not in subscripted:
                yield node.lineno, "type-arg", f"bare generic {node.id!r} in an annotation"


def type_ignores(source: str) -> Iterator[Finding]:
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT and re.match(r"#\s*type:\s*ignore", token.string):
            yield token.start[0], "type-ignore", "'# type: ignore' in a ratchet file"


def lint_source(source: str, limit: int) -> list[Finding]:
    tree = ast.parse(source)
    lines = source.splitlines()
    findings = [
        *long_lines(source, limit), *unused_imports(tree), *unannotated_public_defs(tree),
        *bare_generics(tree), *type_ignores(source),
    ]
    return sorted(f for f in findings if "# noqa" not in lines[f[0] - 1])


def main(argv: Sequence[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    limit = line_length()
    failed = 0
    for name in argv:
        for line, code, message in lint_source(Path(name).read_text(), limit):
            print(f"{name}:{line}: {code} {message}")
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
