"""E17 — whole-rewriting SQL pushdown.

PR 10 claims the certain-answer phase itself — not just fact storage —
can be pushed into SQLite: the entire rewritten UCQ compiles to one
``UNION`` of per-disjunct self-join SELECTs (the ABox restriction a
pushed-down constant filter), so one sqlite3 execution replaces
``O(|disjuncts| × |border facts|)`` Python evaluation.  This bench
drives the E17 experiment
(:func:`repro.experiments.pushdown_exp.run_pushdown_rewriting` — one
shared workload definition, no duplicated harness) and asserts:

* end-to-end served rankings are byte-identical across the memory
  backend, SQLite with pushdown, and SQLite with pushdown disabled —
  with verdicts and the kernel off, so serving routes through
  ``is_certain_answer`` per (query, tuple, border), the regime the
  pushdown accelerates; the sqlite phase must show pushdown traffic
  with zero fallbacks and the non-SQL phases must fall back cleanly;
* at a workload ``scale >= 10``× the base size, a single pass over
  distinct (query, tuple) work items runs ``>= 3``× faster with
  ``engine.pushdown.enabled`` than the legacy in-memory evaluation
  (per-mode one-time ABox setup timed separately), with answer sets
  and membership verdicts identical item for item;
* the recorded trajectory entry carries the memory high-water mark
  (``peak_rss_bytes``) every bench record samples.

Profiles (``REPRO_BENCH_PROFILE`` env var, see ``conftest.py``):

* ``quick`` — 24 base applicants scaled 60×, 16 candidates;
* ``full``  — 24 base applicants scaled 80×, 20 candidates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.experiments.pushdown_exp import run_pushdown_rewriting

pytestmark = pytest.mark.backend


@dataclass(frozen=True)
class PushdownBenchConfig:
    base_applicants: int
    scale: int
    candidate_pool: int
    labeled_per_side: int
    repeats: int


PROFILES = {
    "quick": PushdownBenchConfig(
        base_applicants=24,
        scale=60,
        candidate_pool=16,
        labeled_per_side=8,
        repeats=3,
    ),
    "full": PushdownBenchConfig(
        base_applicants=24,
        scale=80,
        candidate_pool=20,
        labeled_per_side=8,
        repeats=3,
    ),
}

MIN_SCALE = 10
MIN_SPEEDUP = 3.0


def test_bench_pushdown_rewriting(bench_profile, bench_trajectory):
    config = PROFILES[bench_profile]
    result = run_pushdown_rewriting(
        base_applicants=config.base_applicants,
        scale=config.scale,
        candidate_pool=config.candidate_pool,
        labeled_per_side=config.labeled_per_side,
        repeats=config.repeats,
    )
    identity_row = result.rows[0]
    speedup_row = result.rows[1]

    assert identity_row["identical_rankings"] is True, (
        "served rankings diverged across memory / sqlite / sqlite-without-pushdown"
    )
    assert identity_row["pushdown_served"] is True, (
        "the sqlite phase did not serve through the pushdown "
        f"(checks={identity_row['sqlite_pushdown_checks']}, "
        f"fallbacks={identity_row['sqlite_fallbacks']})"
    )
    assert identity_row["fallback_served"] is True, (
        "the non-SQL phases should fall back on every check "
        "(the toggle is inert off the SQL backend, never wrong)"
    )

    assert speedup_row["scale"] >= MIN_SCALE, (
        f"workload only {speedup_row['scale']}x the base size "
        f"(the pushdown claim needs >= {MIN_SCALE}x)"
    )
    assert speedup_row["identical_answers"] is True, (
        "pushdown answer sets diverged from the legacy in-memory evaluation"
    )
    assert speedup_row["identical_verdicts"] is True, (
        "pushdown membership verdicts diverged from legacy contains_tuple"
    )

    path = bench_trajectory(
        "pushdown_rewriting",
        scale=speedup_row["scale"],
        scaled_facts=speedup_row["scaled_facts"],
        legacy_seconds=speedup_row["legacy_seconds"],
        pushdown_seconds=speedup_row["pushdown_seconds"],
        speedup=speedup_row["speedup"],
    )
    recorded = json.loads(path.read_text())[-1]
    assert "peak_rss_bytes" in recorded, (
        "trajectory records must sample the memory high-water mark"
    )
    print()
    print(f"pushdown-rewriting bench [{bench_profile}]")
    print(result.render())
    print(f"  gate: certain-answer speedup >= {MIN_SPEEDUP}x at >= {MIN_SCALE}x scale")
    assert speedup_row["speedup"] >= MIN_SPEEDUP, (
        f"pushdown only {speedup_row['speedup']}x faster "
        f"({speedup_row['legacy_seconds']}s legacy vs "
        f"{speedup_row['pushdown_seconds']}s pushed down; "
        f"gate is >= {MIN_SPEEDUP}x)"
    )
