"""Experiment E17: whole-rewriting SQL pushdown.

PR 9 moved *fact storage* out of core; the certain-answer check itself
still ran in Python — :class:`~repro.obdm.certain_answers.CertainAnswerEngine`
evaluated every disjunct of the perfect rewriting against the border's
``FactIndex``, one homomorphism enumeration at a time.  The engine now
compiles the **entire rewritten UCQ into one SQL statement**
(per-disjunct self-join SELECTs combined with ``UNION``, the border
restriction a pushed-down constant filter) and hands it to the
:class:`~repro.obdm.backend.SQLiteBackend` — one sqlite3 execution
replaces ``O(|disjuncts| × |border facts|)`` Python work, gated by
``engine.pushdown.enabled`` with a per-query ``PushdownUnsupported``
fallback.

Two rows over the banded loan domain:

* ``pushdown_identity`` — one workload served end-to-end (verdicts and
  kernel disabled, so serving routes through ``is_certain_answer``
  per (query, tuple, border) — the regime the pushdown accelerates)
  through the memory backend, SQLite with pushdown, and SQLite with
  pushdown disabled.  Rankings must be byte-identical; the sqlite
  phase must show pushdown traffic and zero fallbacks, the other two
  must fall back on every check (the toggle is inert, not wrong, off
  the SQL backend).
* ``certain_answer_speedup`` — the workload scaled ``scale``× and a
  single pass over *distinct* (query, tuple) work items (each item
  evaluated exactly once per mode, so the engine's memo layer cannot
  inflate the claim) on the same SQLite store with
  ``engine.pushdown.enabled`` on vs off.  Each mode's one-time
  per-ABox setup (SQL fact ingest vs legacy ``FactIndex`` build) is
  timed separately; the gated phase is the *repeated* evaluation work.
  Answer sets and membership verdicts must agree item for item;
  ``benchmarks/bench_pushdown_rewriting.py`` gates the evaluation
  speedup at ``>= 3``×.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, Tuple

from ..obdm.backend import SQLiteBackend
from ..obdm.system import OBDMSystem
from ..ontologies.loans import build_loan_schema, build_loan_specification
from ..obdm.database import SourceDatabase
from ..service import ExplanationService
from .out_of_core_exp import populate_loan_facts
from .scalability import build_loan_pool
from .tables import ExperimentResult


def _legacy_service(database: SourceDatabase, radius: int = 0) -> ExplanationService:
    """A service whose serving path goes through ``is_certain_answer``.

    With verdicts and the kernel disabled, every (candidate, border)
    pair is J-matched individually — exactly the per-check regime the
    whole-rewriting pushdown compiles into single SQL statements.
    """
    specification = build_loan_specification()
    specification.engine.verdicts.enabled = False
    specification.engine.kernel.enabled = False
    system = OBDMSystem(specification, database, name="loan_pushdown")
    return ExplanationService(system, radius=radius)


def _speedup_work_items(pool, applicants: int, members_per_query: int):
    """Distinct (query, candidate tuple) membership items for the timed pass.

    Deterministic: query ``i`` of the pool is checked against
    ``members_per_query`` applicant names starting at offset ``i`` (all
    arity-1 — the loan candidates describe applicants).  Each item is
    distinct, so each is computed exactly once per mode and memoization
    cannot shorten the measured phase.
    """
    items = []
    for index, query in enumerate(pool):
        if query.arity != 1:
            continue
        for step in range(members_per_query):
            name = f"APP{(index * members_per_query + step) % applicants:04d}"
            items.append((query, (name,)))
    return items


def _timed_certain_answer_pass(engine, database, pool, items):
    """One full pass: every pool query enumerated, every item membership-checked.

    Three costs are deliberately kept out of the evaluation timer,
    because neither is what the pushdown changes and each would otherwise
    drown the phase being measured:

    * ABox retrieval (mapping application — identical in both modes);
    * perfect rewriting (identical in both modes, memoized per engine);
    * each mode's one-time per-ABox setup, timed separately as
      ``setup_seconds`` — the SQL path's fact ingest into the
      ``abox_*`` tables vs the legacy path's ``FactIndex`` build.  Both
      are paid once per ABox however many checks follow.

    The evaluation timer then covers exactly the repeated work of the
    certain-answer phase: per-query UCQ evaluation and per-item
    membership checks.
    """
    from ..queries.terms import Constant

    abox = engine.retrieve(database)
    for query in pool:
        engine.rewrite(query)
    gc.collect()
    setup_started = time.perf_counter()
    if engine.pushdown.enabled and database.supports_ucq_pushdown():
        # Registers the ABox rows (the one-time ingest); the probe name
        # never occurs in the workload, so the verdict list below is
        # computed entirely inside the evaluation timer.
        database.ucq_contains_tuple(
            engine.rewrite(pool[0]), (Constant("WARMUP"),), abox.facts
        )
    else:
        abox.index  # builds the legacy FactIndex
    setup_seconds = time.perf_counter() - setup_started
    started = time.perf_counter()
    answers = {}
    for query in pool:
        answers[str(query)] = engine.certain_answers(query, database, abox=abox)
    verdicts = [
        engine.is_certain_answer(query, candidate, database, abox=abox)
        for query, candidate in items
    ]
    elapsed = time.perf_counter() - started
    return answers, verdicts, setup_seconds, elapsed


def run_pushdown_rewriting(
    base_applicants: int = 24,
    scale: int = 10,
    candidate_pool: int = 16,
    labeled_per_side: int = 8,
    members_per_query: int = 3,
    repeats: int = 2,
    seed: int = 7,
    radius: int = 0,
) -> ExperimentResult:
    """E17: pushdown identity + certain-answer speedup."""
    workload = build_loan_pool(
        base_applicants, candidate_pool, labeled_per_side, labelings=2, seed=seed
    )
    base, pool, labeling = workload.database, workload.pool, workload.labelings[0]

    result = ExperimentResult(
        "E17",
        "Whole-rewriting SQL pushdown",
        notes=(
            f"loan domain, base |D|={len(base)} facts, scale x{scale}, "
            f"{len(pool)} candidates, radius={radius}"
        ),
    )

    # -- pushdown identity, served end-to-end ------------------------------
    stores = {
        "memory": base,
        "sqlite": base.with_backend("sqlite", name="pd_sqlite"),
        "sqlite_nopushdown": base.with_backend(
            SQLiteBackend(pushdown=False), name="pd_sqlite_nopush"
        ),
    }
    renders: Dict[str, str] = {}
    traffic: Dict[str, Tuple[int, int]] = {}
    for mode, database in stores.items():
        service = _legacy_service(database, radius=radius)
        renders[mode] = service.explain(
            labeling, candidates=pool, top_k=None
        ).render(top_k=None)
        report = service.size_report()
        traffic[mode] = (
            report["pushdown_hits"] + report["pushdown_misses"],
            report["pushdown_fallbacks"],
        )
    result.add_row(
        mode="pushdown_identity",
        applicants=base_applicants,
        facts=len(base),
        backends=len(stores),
        identical_rankings=len(set(renders.values())) == 1,
        sqlite_pushdown_checks=traffic["sqlite"][0],
        sqlite_fallbacks=traffic["sqlite"][1],
        memory_fallbacks=traffic["memory"][1],
        nopushdown_fallbacks=traffic["sqlite_nopushdown"][1],
        pushdown_served=traffic["sqlite"][0] > 0 and traffic["sqlite"][1] == 0,
        fallback_served=traffic["memory"][1] > 0
        and traffic["sqlite_nopushdown"][1] > 0,
    )

    # -- certain-answer speedup at scale -----------------------------------
    scaled_applicants = base_applicants * scale
    scaled = populate_loan_facts(
        SourceDatabase(
            build_loan_schema(), name="pd_scaled", backend="sqlite"
        ),
        scaled_applicants,
        seed,
    )
    items = _speedup_work_items(pool, scaled_applicants, members_per_query)

    def timed_mode(pushdown: bool):
        # A fresh engine per repeat: each pass pays its own rewriting
        # cost and starts with a cold memo, so the comparison is
        # evaluation vs evaluation, not cache vs cache.  Best-of-N
        # damps scheduler noise on phases of a few tens of ms.
        best = None
        for _ in range(max(1, repeats)):
            engine = build_loan_specification().engine
            engine.pushdown.enabled = pushdown
            answers, verdicts, setup, elapsed = _timed_certain_answer_pass(
                engine, scaled, pool, items
            )
            if best is None or elapsed < best[3]:
                best = (answers, verdicts, setup, elapsed)
        return best

    legacy_answers, legacy_verdicts, legacy_setup, legacy_seconds = timed_mode(False)
    push_answers, push_verdicts, push_setup, push_seconds = timed_mode(True)
    result.add_row(
        mode="certain_answer_speedup",
        applicants=scaled_applicants,
        scale=scale,
        scaled_facts=len(scaled),
        queries=len(pool),
        membership_checks=len(items),
        legacy_setup_seconds=round(legacy_setup, 4),
        pushdown_setup_seconds=round(push_setup, 4),
        legacy_seconds=round(legacy_seconds, 4),
        pushdown_seconds=round(push_seconds, 4),
        speedup=round(legacy_seconds / push_seconds, 2) if push_seconds else None,
        identical_answers=legacy_answers == push_answers,
        identical_verdicts=legacy_verdicts == push_verdicts,
    )
    return result
