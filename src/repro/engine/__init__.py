"""``repro.engine`` — the shared evaluation-cache and batch-scoring substrate.

Why this package exists
-----------------------

The explanation framework (Definition 3.7 of the paper) is a search: it
scores tens to thousands of candidate queries, and every score is a
J-matching profile (Definition 3.4) computed against the *same* borders
and the *same* virtual ABoxes.  The seed implementation rebuilt the
expensive intermediates on every call — most painfully, the chase
strategy re-saturated the ABox on every single ``is_certain_answer``
check.  This package centralises that repeated work behind two
components:

:class:`~repro.engine.cache.EvaluationCache`
    A content-addressed memo shared by every evaluator working against
    one OBDM specification.  It caches (1) saturated chase indexes per
    ABox fact set, (2) perfect rewritings per canonical query signature,
    (3) retrieved border ABoxes per border atom set and (4) J-match
    verdicts per query signature × border.  Keys are frozen *values*,
    never object identities, so shared use across labelings, evaluators
    and worker threads is safe by construction.  Every
    :class:`~repro.obdm.certain_answers.CertainAnswerEngine` owns one
    (``specification.engine.cache``) and the J-matching layer
    (:class:`~repro.core.matching.MatchEvaluator`) consults it.

:class:`~repro.engine.verdicts.VerdictMatrix`
    The bitset verdict engine of the criteria layer.  For one labeling
    it lays the border individuals out as **columns** (positives first,
    then negatives, each sorted deterministically —
    :class:`~repro.engine.verdicts.BorderColumns`) and stores, per
    candidate query, one int-backed bitset **row** whose bit ``i`` says
    whether the query J-matches border ``i``.  Rows are built in one
    pass over the border ABoxes per labeling (borders outer, candidates
    inner, so each retrieved/saturated ABox is consulted while hot),
    UCQ rows are the OR of their disjuncts' rows, and completed rows
    are memoized in the evaluation cache under the layout's
    content-addressed key, so re-ranking a pool under another (Δ, Z)
    configuration never re-runs a J-match.
    :class:`~repro.engine.verdicts.BitsetVerdictProfile` exposes the
    ``MatchProfile`` interface over a row — the criteria δ1–δ4 become
    popcount arithmetic.  **Toggle:** the path is controlled by
    ``specification.engine.verdicts.enabled``
    (:class:`~repro.engine.cache.VerdictPolicy`), in the same style as
    ``engine.cache.enabled``; disabling it restores the legacy per-pair
    path, which the differential suite
    (``tests/engine/test_verdict_matrix.py``) pins as byte-identical
    across all four domain ontologies.

:class:`~repro.engine.kernel.PoolMatchKernel`
    The pool-level match kernel behind verdict-row *construction*.
    Where the per-pair path asks one certain-answer question per
    (candidate, border) cell — O(|pool| × |borders|) independent
    rewriting + homomorphism searches — the kernel merges all border
    ABoxes of a labeling into one
    :class:`~repro.engine.kernel.UnifiedBorderIndex` (a columnar fact
    store: predicate → argument arrays + a provenance bitset per fact)
    and computes a candidate's **whole row in one homomorphism
    enumeration**: a set-at-a-time hash join ANDs provenance bitsets
    along join paths, and each final binding's head projection emits
    its mask into the row.  Partial-match states of canonical atom
    prefixes are **tabled** in the shared cache
    (:meth:`EvaluationCache.subquery_tables`,
    ``CacheStats.subquery_hits/misses``), so candidates of the
    bottom-up lattice that share a prefix pay for it once.  The
    kernel's per-atom provenance OR also yields a cheap row *upper
    bound*, which
    :meth:`~repro.core.best_describe.BestDescriptionSearch.top_k`
    turns into optimistic Z-scores for **top-k bound pruning** (exact
    top-k, candidates that provably cannot reach it never build a
    row).  **Toggle:** ``specification.engine.kernel.enabled``
    (:class:`~repro.engine.cache.KernelPolicy`), same style as
    ``engine.verdicts.enabled``; disabling it restores per-pair row
    construction.  ``VerdictMatrix.build``/``_compute_row``,
    ``apply_drift`` (fresh columns), both ``BatchExplainer`` executors
    and the explanation service's warm sessions all route through it
    when enabled; the differential suite
    (``tests/engine/test_match_kernel.py``) pins kernel rows
    byte-identical to the per-pair path across all four domains ×
    {CQ, UCQ} × {cache on, off} × {thread, process}, and
    ``benchmarks/bench_match_kernel.py`` gates a ≥3× matrix-build
    speedup.

:class:`~repro.engine.batch_kernel.MultiLabelingBatchKernel`
    The bit-sliced **multi-labeling batch kernel**: where the pool
    kernel runs one pass *per labeling*, this merges the borders of
    many column layouts into one deduplicated global layout, runs a
    single :class:`~repro.engine.kernel.PoolMatchKernel` over it, and
    slices each labeling's rows out of the global rows with a
    vectorized bit gather — one homomorphism enumeration per candidate
    for the *whole batch*.  Rows live in a 2-D numpy ``uint64`` bit
    matrix and the δ1–δ4 confusion counts of every candidate come from
    two masked-popcount passes
    (:func:`~repro.engine.batch_kernel.masked_popcounts`) instead of
    per-row ``int.bit_count``.  Entry points:
    :meth:`~repro.engine.verdicts.VerdictMatrix.build_batch` (many
    matrices, one dispatch — used by the ``BatchExplainer`` thread path
    and :meth:`~repro.service.ExplanationService.warm_start`) and the
    single-layout fast path inside ``VerdictMatrix.build``.  The
    kernel's per-atom provenance supports also feed **generator-level
    pruning** (:meth:`~repro.engine.kernel.ProvenancePruner`): candidate
    conjunctions whose AND-of-supports bound is empty are discarded by
    ``repro.core.candidates`` / ``repro.core.refinement`` before a query
    object is even materialised.  **Toggle:**
    ``specification.engine.kernel.batch.enabled``
    (:class:`~repro.engine.cache.BatchKernelPolicy`); numpy is imported
    *only* in :mod:`repro.engine.batch_kernel` and the flag is inert
    without it (``HAS_NUMPY``), falling back to the per-labeling kernel
    transparently.  The differential suite
    (``tests/engine/test_batch_kernel.py``) pins batch rows and reports
    byte-identical to the per-labeling and legacy paths across all four
    domains × {thread, process}, and
    ``benchmarks/bench_batch_labelings.py`` gates a ≥3× batch-dispatch
    speedup.

**Fact-level database drift** (:class:`~repro.engine.cache.DeltaPolicy`)
    The maintenance path that keeps all of the above warm while the
    *source database* changes under serving.  A
    :class:`~repro.obdm.database.DatabaseDelta` (added/removed facts)
    is applied in place by ``SourceDatabase.apply_delta`` — which also
    maintains an order-independent XOR content fingerprint — and then
    propagates incrementally layer by layer:
    :meth:`~repro.core.border.BorderComputer.apply_delta` evicts only
    the cached borders whose constant reach the delta intersects;
    :meth:`~repro.engine.cache.EvaluationCache.invalidate_borders`
    drops exactly the memo entries built over those borders (border
    ABoxes, their saturations, J-match verdicts, verdict layouts,
    tabled subquery states, tabled candidate pools — counted in
    ``CacheStats.delta_invalidations``);
    :meth:`~repro.engine.kernel.UnifiedBorderIndex.apply_patch`
    appends/tombstones fact columns and fixes provenance bitsets in
    place instead of rebuilding the merged index; and
    :meth:`~repro.engine.verdicts.VerdictMatrix.apply_database_delta`
    migrates surviving verdict bits by masking and re-evaluates only
    the columns whose border content actually changed (one bit-sliced
    batch dispatch when the batch kernel is enabled).
    :meth:`~repro.service.ExplanationService.apply_delta` drives the
    whole pipeline for every live session, and service snapshots are
    stamped with the database fingerprint so a post-drift ``load()``
    is refused.  **Toggle:** ``specification.engine.delta.enabled``
    (:class:`~repro.engine.cache.DeltaPolicy`), same policy style as
    the other layers; disabling it reproduces the legacy cold path
    (full cache clear + session reset per delta) exactly.  The
    differential suite (``tests/engine/test_database_delta.py``) pins
    incremental rankings byte-identical to cold rebuilds under random
    delta streams across all four domains × {thread, process}, and
    ``benchmarks/bench_database_drift.py`` gates a ≥3× update-vs-cold
    speedup on a streaming-updates workload.

**Out-of-core storage** (:class:`~repro.engine.cache.SpillPolicy` and
:mod:`repro.obdm.backend`)
    The layer *under* all of the above: where facts live.  The source
    database delegates storage to a pluggable
    :class:`~repro.obdm.backend.StorageBackend` — the default
    ``MemoryBackend`` is the seed's dict indexes verbatim, while
    ``SQLiteBackend`` keeps facts in an indexed SQLite store (on disk
    or ``:memory:``), compiles CQ/SQL/algebra mapping sources to single
    pushed-down SQL statements
    (:meth:`~repro.obdm.database.SourceDatabase.execute_pushdown`,
    falling back per assertion on
    :class:`~repro.obdm.backend.PushdownUnsupported`), and streams
    mapping application (:meth:`~repro.obdm.mapping.Mapping.iter_apply`)
    and border retrieval
    (:meth:`~repro.obdm.database.SourceDatabase.facts_with_any_constant`,
    one batched ``IN`` lookup per BFS frontier) so the Python heap never
    materialises the fact set.  Fingerprints, deltas, snapshot stamping
    and every engine layer behave identically over either backend
    (suite ``tests/obdm/test_backends.py``, marker ``backend``).  On
    the engine side, ``engine.kernel.spill.enabled``
    (:class:`~repro.engine.cache.SpillPolicy`, default off) moves the
    :class:`~repro.engine.kernel.UnifiedBorderIndex`'s columnar
    argument/provenance arrays into memory-mapped temp files
    (:class:`~repro.engine.kernel.SpillArgsRows` /
    :class:`~repro.engine.kernel.SpillMaskRows`) — same layout and row
    ids, byte-identical rankings
    (``tests/engine/test_spill_index.py``).  Experiment ``E16`` and
    ``benchmarks/bench_out_of_core.py`` gate a ≥10× workload served on
    the SQLite backend with a Python-heap allocation peak strictly
    below the in-memory baseline and identical rankings.

**Whole-rewriting SQL pushdown**
(:class:`~repro.engine.cache.PushdownPolicy`)
    The perfect rewriting itself pushed into the relational engine:
    when the source database lives on ``SQLiteBackend``, a
    certain-answer check compiles the *entire* rewritten UCQ into one
    SQL statement — each disjunct a self-join ``SELECT`` over
    per-ontology-predicate ABox tables (the border/retrieved ABox is
    registered once, content-addressed and LRU-bounded, and restricted
    via a pushed-down ABox-id filter), disjuncts combined with
    ``UNION``, membership checks as constant filters under ``LIMIT 1``
    (:meth:`~repro.obdm.backend.SQLiteBackend.ucq_certain_answers` /
    :meth:`~repro.obdm.backend.SQLiteBackend.ucq_contains_tuple`) —
    instead of O(|disjuncts| × |ABox facts|) Python homomorphism
    search.  Results are memoized in the shared cache
    (:meth:`~repro.engine.cache.EvaluationCache.pushdown_result`) and
    counted in ``pushdown_hits`` / ``pushdown_misses`` /
    ``pushdown_fallbacks``, surfaced through
    :meth:`~repro.service.ExplanationService.size_report` and the
    gateway's ``stats_report``.  **Toggle:**
    ``specification.engine.pushdown.enabled``
    (:class:`~repro.engine.cache.PushdownPolicy`, default on; inert on
    the memory backend, which just counts fallbacks).  Any query the
    compiler rejects raises
    :class:`~repro.obdm.backend.PushdownUnsupported` and falls back to
    the legacy in-memory evaluation per query.  The companion
    beyond-RAM thrust lives in the batch kernel:
    ``engine.kernel.spill.enabled`` also moves the 2-D uint64 batch
    bit matrix into ``numpy.memmap`` temp files, processed in row
    slabs with bit-identical δ1–δ4 popcounts
    (:func:`~repro.engine.batch_kernel.pack_bit_matrix` with
    ``spill=True``).  Differential suite
    ``tests/obdm/test_pushdown_rewriting.py``; experiment ``E17`` and
    ``benchmarks/bench_pushdown_rewriting.py`` gate ≥3× on the
    certain-answer phase at a ≥10× loan workload with byte-identical
    rankings.

:class:`~repro.engine.batch.BatchExplainer`
    Concurrent batch scoring of candidate pools across one or many
    labelings via :mod:`concurrent.futures`, with deterministic result
    ordering: results are placed by (labeling, candidate) index and
    ranked with the exact comparator of the sequential search, so batch
    output is query-for-query identical to calling
    :meth:`~repro.core.explainer.OntologyExplainer.explain` in a loop.
    :meth:`~repro.core.explainer.OntologyExplainer.explain_batch` is the
    public entry point.  **Sharding knobs:** ``executor="thread"``
    (default) scores pairs on a thread pool sharing one in-process
    cache; ``executor="process"`` splits each candidate pool into
    contiguous shards and ships (specification, database, labeling,
    shard) payloads to a ``ProcessPoolExecutor`` — specifications
    pickle cleanly (locks dropped and rebuilt, memo entries are
    content-addressed values) and shard results are reassembled in pool
    order, so rankings stay sequential-identical.  ``max_workers``
    bounds both executors; process mode needs picklable criteria and
    expressions (the paper's δ criteria and ready-made expressions
    qualify).

Quickstart::

    from repro.core import Labeling, OntologyExplainer
    from repro.ontologies.university import build_university_system

    system = build_university_system()
    explainer = OntologyExplainer(system)
    reports = explainer.explain_batch(
        [lambda_a, lambda_b],                 # many labelings, one pass
        candidates=["q(x) :- studies(x, 'Math')", ...],
        executor="process",                   # shard pools across processes
    )

Benchmarks: ``benchmarks/bench_batch_explain.py`` measures the cached
batch path against the seed's per-call path (toggle via
``EvaluationCache.enabled``) and ``benchmarks/bench_bitset_criteria.py``
gates a ≥3× criteria-phase speedup of the verdict-matrix path over the
legacy per-pair path (toggle via ``VerdictPolicy.enabled``); both
assert byte-identical rankings.

Next scaling steps this substrate unlocks (see ROADMAP.md): a network
transport over the asyncio gateway (HTTP/MCP tool surface, replica
topologies) and scenario diversity via an ontology importer plus
parameterised synthetic workload scaling.
"""

from __future__ import annotations

from .cache import (
    BatchKernelPolicy,
    CacheLimits,
    CacheStats,
    DeltaPolicy,
    EvaluationCache,
    KernelPolicy,
    LRUStore,
    PushdownPolicy,
    SpillPolicy,
    VerdictPolicy,
)
from .kernel import PoolMatchKernel, SpillArgsRows, SpillMaskRows, UnifiedBorderIndex

__all__ = [
    "BatchExplainer",
    "BatchKernelPolicy",
    "BitsetVerdictProfile",
    "BorderColumns",
    "CacheLimits",
    "CacheStats",
    "DeltaPolicy",
    "EvaluationCache",
    "KernelPolicy",
    "LRUStore",
    "MultiLabelingBatchKernel",
    "PoolMatchKernel",
    "PushdownPolicy",
    "SpillArgsRows",
    "SpillMaskRows",
    "SpillPolicy",
    "UnifiedBorderIndex",
    "VerdictMatrix",
    "VerdictPolicy",
]

_LAZY_MODULES = {
    # These are exposed lazily: importing repro.engine.batch or
    # repro.engine.verdicts pulls in repro.core, which itself imports
    # repro.obdm.certain_answers → repro.engine.cache; loading them
    # eagerly here would close that loop during package initialisation.
    # (repro.engine.kernel only imports repro.queries and the
    # engine-free repro.obdm.backend codec, so it loads eagerly above.)
    "BatchExplainer": "batch",
    "BitsetVerdictProfile": "verdicts",
    "BorderColumns": "verdicts",
    "MultiLabelingBatchKernel": "batch_kernel",
    "VerdictMatrix": "verdicts",
}


def __getattr__(name: str):
    module_name = _LAZY_MODULES.get(name)
    if module_name is not None:
        from importlib import import_module

        return getattr(import_module(f".{module_name}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
