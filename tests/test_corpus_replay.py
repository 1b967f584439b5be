"""Replay every regression case in ``tests/corpus/`` through the battery.

Each file pins one minimized bug class: either the pipeline must handle it
cleanly (``expect: pass``) or the oracle battery must still *catch* it
(``expect: discrepancy`` — these cases guard the harness's own detection
power, e.g. that a deliberate miscompile cannot slip through unnoticed), or
the service's admission must refuse it (``expect: reject``).
"""

from pathlib import Path

import pytest

from repro.testing import read_case, replay_case
from repro.testing.corpus import corpus_files

CORPUS_DIR = Path(__file__).parent / "corpus"

FILES = corpus_files(CORPUS_DIR)


def test_corpus_is_seeded():
    assert len(FILES) >= 10, "the regression corpus must hold at least 10 cases"


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_corpus_case_replays(path):
    case = read_case(path)
    # replay_case raises AssertionError when the outcome contradicts the
    # case's expectation; the return value is the battery result.
    result = replay_case(case)
    if case.expect == "pass":
        assert result.ok
    elif case.expect == "reject":
        # Refused at the door: nothing but admission spoke.
        assert {d.oracle for d in result.discrepancies} == {"admission"}
    else:
        assert not result.ok


def test_corpus_round_trips(tmp_path):
    """write_case(read_case(f)) reproduces every program structurally."""

    from repro.testing import write_case

    for path in FILES:
        case = read_case(path)
        copy = write_case(tmp_path / path.name, case)
        again = read_case(copy)
        assert again.programs == case.programs, path.name
        assert again.fault == case.fault and again.expect == case.expect
