"""Canonical program fingerprints for the plan cache.

Two queries that differ only in local-variable names or in their program
identifier are the *same* query to the consolidator — the merge it
produces is identical up to the same renaming.  The plan cache therefore
keys on the canonical form :func:`repro.lang.visitors.canonicalize` builds
(locals renamed ``_c0, _c1, …`` and pids ``_p0, _p1, …`` in order of first
appearance), printed to concrete syntax and hashed together with the
cost-model identifier — the same program consolidated under a different
cost model may merge differently, so it must not share a cache line.  The
consolidation driver groups a batch by the same form (its α-classes ride
on one calculus run), which is why it lives in :mod:`repro.lang`.

:func:`plan_key` folds a whole registry's member fingerprints into one
order-independent key: a batch containing the same multiset of canonical
programs reuses the prior consolidated plan regardless of registration
order.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Iterable

from ..lang.ast import Program
from ..lang.cost import DEFAULT_COST_MODEL, CostModel
from ..lang.printer import program_to_str
from ..lang.visitors import canonicalize, rename_pids

__all__ = [
    "canonicalize",
    "cost_model_id",
    "fingerprint",
    "plan_key",
    "rename_pids",
]

def cost_model_id(cost_model: CostModel = DEFAULT_COST_MODEL) -> str:
    """A short stable identifier for one cost model's weights."""

    text = ",".join(f"{k}={v}" for k, v in sorted(asdict(cost_model).items()))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def fingerprint(
    program: Program, cost_model: CostModel = DEFAULT_COST_MODEL
) -> str:
    """Canonical fingerprint of one query under one cost model."""

    text = program_to_str(canonicalize(program))
    payload = f"{cost_model_id(cost_model)}\n{','.join(program.params)}\n{text}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def plan_key(fingerprints: Iterable[str]) -> str:
    """Order-independent key for a whole registry's membership."""

    return hashlib.sha256("|".join(sorted(fingerprints)).encode()).hexdigest()[:16]
