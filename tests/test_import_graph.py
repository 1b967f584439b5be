"""``import repro`` loads only what the query path runs.

The HTTP transport (``repro.service.client`` / ``.server``), the process
pool and the profiler load on first use, so a fresh interpreter that
consolidates and runs queries in-process never pays for ``http``,
``ssl``, ``email``, ``socketserver`` or ``multiprocessing``.  The public
names still resolve, through one module-level ``__getattr__`` per package.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

DEFERRED = (
    "http.server",
    "http.client",
    "socketserver",
    "multiprocessing",
    "concurrent.futures.process",
    "repro.service.client",
    "repro.service.server",
    "repro.profiling.calibrate",
    "repro.profiling.profiler",
)


def test_import_repro_leaves_the_transport_pool_and_profiler_unloaded():
    script = (
        "import json, sys\n"
        "import repro\n"
        "from repro.service import QueryRegistry\n"
        f"print(json.dumps(sorted(set(sys.modules) & set({list(DEFERRED)!r}))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(done.stdout) == []


@pytest.mark.parametrize(
    "package, name, home",
    [
        ("repro.service", "Client", "repro.service.client"),
        ("repro.service", "RegisterResult", "repro.service.client"),
        ("repro.service", "ConsolidationServer", "repro.service.server"),
        ("repro.service", "serve", "repro.service.server"),
        ("repro.profiling", "Profiler", "repro.profiling.profiler"),
        ("repro.profiling", "fit_calibration", "repro.profiling.calibrate"),
    ],
)
def test_deferred_public_names_still_resolve(package, name, home):
    module = importlib.import_module(package)
    assert name in module.__all__
    assert getattr(module, name) is getattr(importlib.import_module(home), name)


def test_unknown_names_are_still_attribute_errors():
    import repro.profiling
    import repro.service

    for package in (repro.service, repro.profiling):
        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            package.Nope  # noqa: B018
