"""``tools/ast_lint.py``: the checks themselves, and the files held to them.

The linter is a stdlib stand-in for the ``static-checks`` CI job where
``ruff``/``mypy`` are not installed; the job stays authoritative.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ast_lint", ROOT / "tools" / "ast_lint.py")
ast_lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ast_lint)

# Files ast_lint holds that the typed ratchet (ruff + mypy --strict in CI) does not cover.
LINT_ONLY = (
    "src/repro/nodeslots.py",
    "src/repro/lang/ast.py",
    "tools/ast_lint.py",
)

# Ratchet files ast_lint still has findings in (37 between them; ROADMAP item 6d).
NOT_YET = (
    "src/repro/analysis/static/lint.py",
    "src/repro/analysis/static/validate.py",
    "src/repro/analysis/static/values.py",
    "src/repro/profiling/model.py",
    "src/repro/profiling/trace.py",
)


def ratchet_files() -> list[str]:
    """``tools/ratchet.txt`` — the list CI's static-checks job reads — file by file."""

    files = []
    for line in (ROOT / "tools" / "ratchet.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            path = ROOT / line
            assert path.exists(), f"tools/ratchet.txt names {line}, which is gone"
            found = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            files.extend(str(f.relative_to(ROOT)) for f in found)
    return files


def findings(path: str) -> list[str]:
    found = ast_lint.lint_source((ROOT / path).read_text(), ast_lint.line_length())
    return [f"{path}:{line}: {code} {msg}" for line, code, msg in found]


def codes(source: str, limit: int = 100) -> list[tuple[int, str]]:
    return [(line, code) for line, code, _message in ast_lint.lint_source(source, limit)]


@pytest.mark.parametrize("path", [f for f in ratchet_files() if f not in NOT_YET] + list(LINT_ONLY))
def test_held_files_are_clean(path):
    found = findings(path)
    assert not found, "\n".join(found)


def test_an_exemption_lasts_only_while_its_file_has_findings():
    assert set(NOT_YET) <= set(ratchet_files())
    assert [path for path in NOT_YET if not findings(path)] == []


def test_line_length_comes_from_pyproject():
    assert ast_lint.line_length() == 100
    assert codes("x = 1  # " + "." * 100 + "\n") == [(1, "E501")]
    assert codes("x = 1  # " + "." * 100 + "\n", limit=200) == []


def test_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys, json as js\n"
        "from typing import Any, Optional\n"
        "from .ast import Call, Var, seq\n"
        "from .other import kept  # noqa: F401\n"
        "__all__ = ['seq']\n"
        "def f(x: 'Optional[Call]') -> Any:\n"
        "    return sys.argv, x\n"
    )
    assert codes(source) == [(2, "F401"), (3, "F401"), (5, "F401")]
    messages = [m for _l, _c, m in ast_lint.lint_source(source, 100)]
    assert messages == [
        "'os' imported but unused",
        "'json' imported but unused",
        "'Var' imported but unused",
    ]


def test_unannotated_public_defs():
    source = (
        "def public(a, b: int = 0, *rest, **kw) -> int: ...\n"
        "def no_return(a: int): ...\n"
        "def _private(a): ...\n"
        "def fine(a: int, *rest: int, flag: bool = False) -> None:\n"
        "    def nested(x): ...\n"
        "class Shown:\n"
        "    def method(self, x) -> None: ...\n"
        "    def ok(self, x: int) -> None: ...\n"
        "    @staticmethod\n"
        "    def helper(x) -> None: ...\n"
        "    def __len__(self): ...\n"
        "class _Hidden:\n"
        "    def method(self, x): ...\n"
    )
    found = ast_lint.lint_source(source, 100)
    assert [(line, message) for line, _code, message in found] == [
        (1, "public: unannotated a, rest, kw"),
        (2, "no_return: unannotated return"),
        (7, "method: unannotated x"),
        (10, "helper: unannotated x"),
        (11, "__len__: unannotated return"),
    ]


def test_bare_generics_in_annotations():
    source = (
        "from typing import Callable, Optional\n"
        "memo: dict = {}\n"
        "typed: dict[str, list[int]] = {}\n"
        "def f(a: list, b: 'Optional[tuple]', c: Callable[[], int]) -> Callable: ...\n"
        "class K:\n"
        "    rows: list[dict]\n"
        "    def m(self, t: tuple[int, ...]) -> type[int]: ...\n"
        "values = dict(x=1)  # a call, not an annotation\n"
    )
    found = [(line, msg) for line, code, msg in ast_lint.lint_source(source, 100)]
    assert found == [
        (2, "bare generic 'dict' in an annotation"),
        (4, "bare generic 'Callable' in an annotation"),
        (4, "bare generic 'list' in an annotation"),
        (4, "bare generic 'tuple' in an annotation"),
        (6, "bare generic 'dict' in an annotation"),
    ]
    assert {code for _l, code, _m in ast_lint.lint_source(source, 100)} == {"type-arg"}


def test_stray_type_ignores_are_comments_not_strings():
    source = (
        "x: int = 'a'  # type: ignore[assignment]\n"
        "y = 1  #type:ignore\n"
        "doc = 'write # type: ignore here'\n"
        "z = 2  # typed: ignored\n"
    )
    assert codes(source) == [(1, "type-ignore"), (2, "type-ignore")]


def test_command_line_exit_status(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\n")
    assert ast_lint.main([str(bad)]) == 1
    assert capsys.readouterr().out == f"{bad}:1: F401 'os' imported but unused\n"
    assert ast_lint.main([str(ROOT / "src/repro/nodeslots.py")]) == 0
