"""The benchmark's three workloads, built from the public library API only.

Each workload owns its inputs (a fixed database per workload or tenant;
the traffic drawn from the ``--seed``), a ``setup()`` that builds
everything a measured phase needs, a
``measure(seconds, tracer)`` phase, and a ``check()`` that compares every
distinct request's rendered report with the per-pair oracle: a fresh
system on the same database content with ``engine.verdicts`` and
``engine.kernel`` off.  Repeated requests are checked against the same
oracle report, so a mismatch is counted once per request served.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core import CandidateConfig, CandidateGenerator, Labeling, OntologyExplainer
from repro.gateway import ExplanationGateway, GatewayOverloaded, GatewayTimeout, ServiceRegistry
from repro.obdm import DatabaseDelta, OBDMSystem
from repro.ontologies.loans import build_loan_specification, build_loan_system
from repro.ontologies.university import build_university_specification
from repro.queries import Atom
from repro.service import ExplanationService
from repro.workloads import (
    LoanWorkloadConfig,
    UniversityWorkloadConfig,
    generate_loan_workload,
    generate_university_workload,
)

from hostspeed import HostClock
from spans import WRITE, Tracer

#: Worker threads never exceed the machine's cores.
WORKERS = max(1, min(2, os.cpu_count() or 1))
#: A closed-loop phase serves at least this many reads, so that its tail
#: percentile (p75) has at least ten samples beyond it on a slow host too.
MIN_READS = 40


@dataclass
class Phase:
    """What one measured phase observed.

    ``reads`` and ``writes`` hold the ``(start, end)`` of every completed
    operation, in ``time.perf_counter()`` seconds; on ``gateway_pool`` a
    read starts at its scheduled due time.
    """

    reads: List[Tuple[float, float]] = field(default_factory=list)
    writes: List[Tuple[float, float]] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    attempted: int = 0
    errors: int = 0
    completed: int = 0
    wall: float = 0.0

    @property
    def latencies(self) -> List[float]:
        return [end - start for start, end in self.reads]

    @property
    def write_latencies(self) -> List[float]:
        return [end - start for start, end in self.writes]


def oracle_system(system: OBDMSystem) -> OBDMSystem:
    """Switch a freshly built system onto the per-pair reference path."""
    engine = system.specification.engine
    engine.verdicts.enabled = False
    engine.kernel.enabled = False
    return system


def quiesce(clock: HostClock) -> None:
    """A closed loop's pause between operations: collect garbage, then probe the host.

    Collecting first gives every operation the heap a fresh process would
    give it (``explain_cold``), or the one a service that collects while
    idle between requests would (``service_stream``), whatever ran before
    it.  Left to the collector's own schedule, a full collection (about
    0.2 s on ``service_stream``'s heap, roughly one per three reads)
    landed on whichever operation crossed its threshold, which the seeded
    order decides.  The survivors are then frozen (see
    :func:`frozen_heap`), so the next pause walks only what one operation
    left.  The collections an operation's own allocations trigger are
    still timed.
    """
    gc.collect()
    gc.freeze()
    clock.probe()


@contextmanager
def frozen_heap():
    """Keep the objects frozen during one phase out of the collector's reach.

    They are still freed by reference counting; cyclic garbage among them
    waits for the end of the phase, when they are unfrozen.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def labeling_of(name: str, members: Tuple[str, ...], positives: int) -> Labeling:
    """The labeling whose first *positives* members are positive, the rest negative."""
    return Labeling(members[:positives], members[positives:], name=name)


def render(report) -> str:
    return report.render(top_k=None)


class Served:
    """Renderings of every report served, grouped by distinct request.

    A report is rendered as it is added and only ``(labeling name,
    rendering) -> times served`` is kept, so the benchmark holds no report
    object, nor anything it references, in the program's heap while the
    program runs.
    """

    def __init__(self):
        self.reports: Dict[Tuple, Counter] = {}

    def add(self, key: Tuple, report) -> None:
        self.reports.setdefault(key, Counter())[report.labeling_name, render(report)] += 1

    def mismatches(self, key: Tuple, expected) -> int:
        """Served reports under *key* whose rendering differs from *expected*'s.

        *expected* is rendered under each served report's own labeling
        name, so requests for the same members under different names share
        one oracle evaluation.
        """
        failed = 0
        for (name, rendered), times in self.reports[key].items():
            if rendered != render(replace(expected, labeling_name=name)):
                failed += times
        return failed


def dealt(rng: random.Random, deck):
    """Endless stream of *deck*'s items, reshuffled by *rng* on every pass.

    Dealing instead of drawing fixes each item's share of every full pass,
    so runs with different seeds see the same mix in a different order.
    """
    while True:
        hand = list(deck)
        rng.shuffle(hand)
        yield from hand


def draw_distinct(stream, count: int) -> List:
    chosen: List = []
    while len(chosen) < count:
        item = next(stream)
        if item not in chosen:
            chosen.append(item)
    return chosen


# -- explain_cold ---------------------------------------------------------------

class ExplainCold:
    """Closed loop, one client: a fresh system and a default ``explain()`` per request.

    The database is the scaled university workload at its generator's
    default seed.  The students labelled set most of a request's cost, so
    every pass runs the same balanced design of twenty-four 2+2 labelings:
    the cyclic pairs ``{i, i+1}``, ``{i, i+2}`` and ``{i, i+3}`` of the
    eight positives, each against the same cyclic pair of eight fixed
    negatives, so that every labelled student occurs in six labelings.
    The seed orders each pass.  Every request builds a fresh system, so a
    repeated labeling is as cold as the first.  A phase runs for the given seconds and at least
    ``MIN_READS`` requests, and then to the end of the pass it is in, so
    every phase measures whole passes of the design and runs with
    different seeds measure the same work.
    """

    name = "explain_cold"
    OPEN_LOOP = False
    STUDENTS = 30
    LABELLED = 2
    SIDE = 8       # positives, and negatives, in the design
    STEPS = (1, 2, 3)
    TAIL = 0.75

    def __init__(self, seed: int):
        self.seed = seed
        self.clock = HostClock()

    def setup(self) -> None:
        workload = generate_university_workload(UniversityWorkloadConfig(students=self.STUDENTS))
        self.database = workload.database
        positives = workload.parameters["positives"][: self.SIDE]
        pool = workload.parameters["negatives"]
        negatives = [pool[i * len(pool) // self.SIDE] for i in range(self.SIDE)]
        self.rng = random.Random(self.seed)

        def pair(members, first, step):
            return (members[first % self.SIDE], members[(first + step) % self.SIDE])

        self.inputs = [
            Labeling(pair(positives, i, step), pair(negatives, i, step),
                     name=f"cold{step}-{i}")
            for step in self.STEPS for i in range(self.SIDE)
        ]
        self.order: List[int] = []
        self.served = Served()
        # One request before measuring loads the lazily imported engine
        # modules, which a one-shot analyst process pays once.
        self._request(Labeling(positives[: self.LABELLED], negatives[: self.LABELLED],
                               name="warmup"))

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        with frozen_heap():
            return self._serve(seconds, tracer)

    def _serve(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        deadline = start + seconds
        while (time.perf_counter() < deadline or len(phase.latencies) < MIN_READS
               or self.order):
            if not self.order:
                self.order = list(range(len(self.inputs)))
                self.rng.shuffle(self.order)
            index = self.order.pop()
            phase.attempted += 1
            quiesce(self.clock)
            began = time.perf_counter()
            if tracer is None:
                system, report = self._request(self.inputs[index])
            else:
                with tracer.request():
                    system, report = self._request(self.inputs[index])
            phase.reads.append((began, time.perf_counter()))
            phase.completed += 1
            self.served.add(index, report)
            if tracer is not None:
                for name, value in system.specification.engine.cache.stats.as_dict().items():
                    tracer.add(f"cache.{name}", value)
            # Nothing of this request may outlive it into the next pause,
            # which would freeze it (see quiesce).
            del system, report
        self.clock.probe()
        phase.wall = time.perf_counter() - start
        return phase

    def _request(self, labeling: Labeling):
        system = OBDMSystem(build_university_specification(), self.database)
        return system, OntologyExplainer(system).explain(labeling)

    def check(self) -> int:
        """One fresh oracle system over the database serves every distinct request."""
        explainer = OntologyExplainer(
            oracle_system(OBDMSystem(build_university_specification(), self.database)))
        return sum(
            self.served.mismatches(index, explainer.explain(self.inputs[index]))
            for index in self.served.reports
        )

    def layer_counts(self) -> Dict[str, int]:
        return {}

    def close(self) -> None:
        pass


# -- service_stream -------------------------------------------------------------

class ServiceStream:
    """Closed loop, one client, against one long-lived ``ExplanationService``.

    A seeded mix of warm repeats, same-name drifted labelings, new
    labelings (which eventually evict from the session ring) and writes:
    a ``DatabaseDelta`` through ``apply_delta`` that swaps the city, or
    the income band, of two applicant records, undone by the next write.
    The database is the loan workload at its generator's default seed.

    The positive applicant sets most of a read's cost (the pool is
    generated from its border), so the working set holds one labeling
    name per applicant, ``L<i>`` with applicant ``i`` positive, and every
    block of operations reads each applicant's labeling twice: once as a
    warm repeat and once changed to the next negative in that applicant's
    turn, under the same name (a drift) or, for one applicant a block in
    turn, under a fresh name (a new labeling).  The two swaps are fixed by
    the database and alternate.  The write opens each block and the seed
    interleaves the applicants' reads (each warm repeat before its change),
    so runs with different seeds measure the same operations in a
    different order.  The renamed applicant, the negatives and the writes
    all repeat every ``CYCLE`` blocks, after which the database is back
    at its generated content.  Set-up serves one warm-up request per name.
    A phase runs for the given seconds and at least ``MIN_READS`` reads,
    and then to the end of the cycle it is in, so every phase measures
    whole cycles of the design.
    """

    name = "service_stream"
    OPEN_LOOP = False
    APPLICANTS = 4
    LABELLED = 1
    # Applicant i's changes take the negatives i+2, i+1, i+3, i+1, ... in
    # turn (indices modulo APPLICANTS), each other than the one before.
    NEGATIVES = (2, 1, 3, 1)
    CYCLE = 4  # blocks: the renamed applicant, the negatives and the writes repeat
    MAX_SESSIONS = 6
    # The swapped value sits in column 1 of both relations:
    # RESIDES(applicant, city) and APPLICANT(id, income_band, ...).
    SWAPPED = ("RESIDES", "APPLICANT")
    TAIL = 0.75

    def __init__(self, seed: int):
        self.seed = seed
        self.applicants = [f"APP{index:04d}" for index in range(self.APPLICANTS)]
        self.clock = HostClock()

    def setup(self) -> None:
        self.base = generate_loan_workload(LoanWorkloadConfig(applicants=self.APPLICANTS)).database
        database = self.base.copy()
        self.swaps = [self._swap(database, predicate) for predicate in self.SWAPPED]
        self.service = ExplanationService(
            build_loan_system(database), max_sessions=self.MAX_SESSIONS
        )
        count = len(self.applicants)
        self.working = {
            applicant: (f"L{index}", (applicant, self.applicants[(index + 1) % count]))
            for index, applicant in enumerate(self.applicants)
        }
        self.next_name = count
        for entry in self.working.values():
            self.service.explain(labeling_of(*entry, self.LABELLED))
        self.rng = random.Random(self.seed)
        self.pending: List[Tuple[str, Optional[str]]] = []
        self.blocks = 0
        self.turns = {applicant: 0 for applicant in self.applicants}
        self.writes = itertools.cycle(self.swaps)
        self.restore: Optional[DatabaseDelta] = None
        self.deltas: List[DatabaseDelta] = []
        # Database fingerprint -> how many deltas first produced that content.
        self.versions: Dict[str, int] = {database.fingerprint(): 0}
        self.served = Served()
        self.labelings: Dict[Tuple, Labeling] = {}

    # -- the operation stream --------------------------------------------------

    @staticmethod
    def _swap(database, predicate: str) -> Tuple[DatabaseDelta, DatabaseDelta]:
        """``(swap, restore)``: exchange column 1 of the first two records that differ there."""
        records = sorted((fact for fact in database.facts if fact.predicate == predicate),
                         key=lambda fact: str(fact.args[0].value))
        first = records[0]
        second = next(fact for fact in records if fact.args[1] != first.args[1])
        old = [first, second]
        new = [Atom(predicate, (fact.args[0], other.args[1]) + fact.args[2:])
               for fact, other in ((first, second), (second, first))]
        return DatabaseDelta.of(added=new, removed=old), DatabaseDelta.of(added=old, removed=new)

    def _write(self) -> DatabaseDelta:
        """The next swap, or the restore of the previous one.

        Restoring keeps the database at its generated content between
        swaps, so a swap's effect on border sizes does not carry through
        the run.
        """
        if self.restore is not None:
            delta, self.restore = self.restore, None
            return delta
        delta, self.restore = next(self.writes)
        return delta

    def _block(self) -> List[Tuple[str, Optional[str]]]:
        """The next block's ``(kind, positive)`` operations, last one first.

        The write opens the block and the reads follow in a seeded
        interleaving of the applicants, each applicant's warm repeat before
        its change.  Every read of a block then serves the same labeling on
        the same database content whatever the seed: a warm repeat after
        the change, or a read before the swap, would be a different read.
        """
        renamed = self.applicants[self.blocks % len(self.applicants)]
        self.blocks += 1
        turns = self.applicants * 2
        self.rng.shuffle(turns)
        seen = set()
        block = []
        for applicant in turns:
            if applicant not in seen:
                seen.add(applicant)
                block.append(("warm", applicant))
            else:
                block.append(("new" if applicant == renamed else "drift", applicant))
        return block[::-1] + [("write", None)]

    def _read(self, kind: str, positive: str) -> Labeling:
        name, members = self.working[positive]
        if kind != "warm":
            index = self.applicants.index(positive)
            step = self.NEGATIVES[self.turns[positive] % len(self.NEGATIVES)]
            negative = self.applicants[(index + step) % len(self.applicants)]
            self.turns[positive] += 1
            if kind == "new":
                name = f"L{self.next_name}"
                self.next_name += 1
            self.working[positive] = name, members = (name, (positive, negative))
        return labeling_of(name, members, self.LABELLED)

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        with frozen_heap():
            return self._serve(seconds, tracer)

    def _serve(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        deadline = start + seconds
        while (time.perf_counter() < deadline or len(phase.latencies) < MIN_READS
               or self.pending or self.blocks % self.CYCLE):
            if not self.pending:
                self.pending = self._block()
            kind, positive = self.pending.pop()
            phase.attempted += 1
            quiesce(self.clock)
            if kind == "write":
                delta = self._write()
                began = time.perf_counter()
                if tracer is None:
                    self.service.apply_delta(delta)
                else:
                    with tracer.request(layer=WRITE):
                        self.service.apply_delta(delta)
                phase.writes.append((began, time.perf_counter()))
                self.deltas.append(delta)
                self.versions.setdefault(self.service.system.database.fingerprint(),
                                         len(self.deltas))
            else:
                labeling = self._read(kind, positive)
                began = time.perf_counter()
                if tracer is None:
                    report = self.service.explain(labeling)
                else:
                    with tracer.request():
                        report = self.service.explain(labeling)
                phase.reads.append((began, time.perf_counter()))
                key = (self.service.system.database.fingerprint(), labeling.signature())
                self.served.add(key, report)
                self.labelings[key] = labeling
                del report
            phase.completed += 1
        self.clock.probe()
        phase.wall = time.perf_counter() - start
        return phase

    def check(self) -> int:
        """A fresh oracle system per database content seen by a read.

        Each content is rebuilt from the generated database by replaying
        the deltas that first produced it.  The systems share one oracle
        specification, whose evaluation cache is keyed by border and fact
        content, so one content's borders never hit another's entries; the
        oracle itself applies no deltas to a live system.  Reads of the
        same members under different names share one oracle evaluation.
        """
        failed = 0
        by_content: Dict[str, List[Tuple]] = {}
        for key in self.served.reports:
            by_content.setdefault(key[0], []).append(key)
        specification = build_loan_specification()
        for content, keys in by_content.items():
            database = self.base.copy()
            for delta in self.deltas[: self.versions[content]]:
                database.apply_delta(delta)
            explainer = OntologyExplainer(oracle_system(OBDMSystem(specification, database)))
            for key in keys:
                failed += self.served.mismatches(key, explainer.explain(self.labelings[key]))
        return failed

    def layer_counts(self) -> Dict[str, int]:
        counts = {f"cache.{k}": v for k, v in self.service.cache_stats.as_dict().items()}
        counts.update({f"service.{k}": v for k, v in self.service.stats.as_dict().items()})
        return counts

    def close(self) -> None:
        pass


# -- gateway_pool ---------------------------------------------------------------

class GatewayPool:
    """Open loop against ``ExplanationGateway`` with two tenants.

    Arrivals follow a seeded Poisson schedule at a fixed rate: the run's
    ``RATE * seconds`` arrival times are uniform over the window, which is
    the Poisson process conditioned on its count.  A fixed share of the
    arrivals are bursts of identical requests for a hot labeling, which
    the gateway coalesces; a fixed share carry a labeling never seen
    before, the next of a fixed sequence per tenant, whose cold verdict
    rows form the tail; and a fixed share carry
    a hot labeling's name with one applicant swapped, which the tenant's
    service absorbs as a same-name drift.  Every request passes its tenant's
    explicit candidate pool, generated once during set-up.

    The tenants hold loan databases at two fixed generator seeds; the
    second lives on the SQLite backend.  Their content must differ: the
    registry keys services by content fingerprint, so a content-identical
    SQLite twin would silently be served by the memory tenant's service.
    """

    name = "gateway_pool"
    OPEN_LOOP = True
    APPLICANTS = 8
    LABELLED = 2
    HOT = 4
    POOL = CandidateConfig(max_candidates=100)
    POOL_LABELING = ("pool", ("APP0000", "APP0001", "APP0002", "APP0003"))
    RATE = 7.5          # arrivals per second: about 0.13 of capacity (see capacity())
    NEW_SHARE = 0.25    # arrivals carrying a labeling never seen before
    DRIFT_SHARE = 0.10  # arrivals carrying a hot labeling's name with one applicant swapped
    BURST_SHARE = 0.20  # arrivals that are a burst of identical requests
    BURST = 3
    TIMEOUT = 10.0
    # p90 falls between the warm and the cold requests, where a few
    # requests more or less on either side move it by half; p95 lies
    # among the cold ones and has ten samples beyond it at about 210
    # requests a run.
    TAIL = 0.95
    TENANTS = (("memory", 7), ("sqlite", 8))  # (backend, generator seed)
    # While no request is in flight, the arrival loop collects garbage if
    # the next arrival is at least COLLECT_GAP_S off, then probes the
    # host's speed if it is still at least PROBE_GAP_S off.
    COLLECT_GAP_S = 0.05
    PROBE_GAP_S = 0.02

    def __init__(self, seed: int):
        self.seed = seed
        self.applicants = [f"APP{index:04d}" for index in range(self.APPLICANTS)]
        self.loop = asyncio.new_event_loop()
        self.gateway = None
        self.clock = HostClock()
        self.in_flight = 0
        self.idle = asyncio.Event()

    def _members(self, rng: random.Random, name: str) -> Tuple[str, Tuple[str, ...]]:
        return name, tuple(rng.sample(self.applicants, 2 * self.LABELLED))

    def setup(self) -> None:
        if self.gateway is not None:
            self.loop.run_until_complete(self.gateway.aclose())
        self.databases, self.pools, self.hot, self.cold = {}, {}, {}, {}
        registry = ServiceRegistry()
        for tenant, generator_seed in self.TENANTS:
            database = generate_loan_workload(
                LoanWorkloadConfig(applicants=self.APPLICANTS, seed=generator_seed)
            ).database.with_backend(tenant)
            self.databases[tenant] = database
            registry.register(tenant, lambda database=database: build_loan_system(database))
            generator = CandidateGenerator(build_loan_system(database), config=self.POOL)
            self.pools[tenant] = list(
                generator.generate(labeling_of(*self.POOL_LABELING, self.LABELLED)))
            fixed = random.Random(generator_seed)
            self.hot[tenant] = [
                self._members(fixed, f"{tenant}{index}") for index in range(self.HOT)
            ]
            # New labelings come from a fixed sequence per tenant, whatever
            # the seed, so every run's cold verdict rows are the same ones;
            # their applicants are dealt, so they cover every border equally.
            deck = dealt(fixed, self.applicants)
            self.cold[tenant] = (tuple(draw_distinct(deck, 2 * self.LABELLED))
                                 for _ in itertools.count())
        self.gateway = ExplanationGateway(
            registry, max_concurrency=WORKERS, default_timeout=self.TIMEOUT
        )
        for tenant, _ in self.TENANTS:
            for members in self.hot[tenant]:
                self.loop.run_until_complete(
                    self._explain(tenant, labeling_of(*members, self.LABELLED)))
        self.arrivals = random.Random(self.seed)
        self.fresh = dealt(self.arrivals, self.applicants)
        self.next_name = 0
        self.served = Served()
        self.labelings: Dict[Tuple, Labeling] = {}

    def _explain(self, tenant: str, labeling: Labeling):
        return self.gateway.explain(tenant, labeling, candidates=self.pools[tenant], top_k=10)

    def _schedule(self, seconds: float) -> List[Tuple[float, str, Tuple, int]]:
        """``(offset, tenant, labeling members, copies)`` for every arrival."""
        rng = self.arrivals
        count = max(1, round(self.RATE * seconds))
        offsets = sorted(rng.uniform(0, seconds) for _ in range(count))
        new = round(count * self.NEW_SHARE)
        drift = round(count * self.DRIFT_SHARE)
        # Bursts repeat hot labelings (dashboards refreshing), so every cold
        # request is an independent sample of the tail.
        bursts = min(count - new - drift, round(count * self.BURST_SHARE))
        kinds = ["new"] * new + ["drift"] * drift + ["burst"] * bursts
        kinds += ["hot"] * (count - len(kinds))
        rng.shuffle(kinds)
        # Each kind alternates between the tenants, so that every run gives
        # each tenant the same share of every kind.
        names = [tenant for tenant, _ in self.TENANTS]
        tenants = {kind: dealt(rng, names) for kind in ("new", "drift", "burst", "hot")}
        schedule = []
        for offset, kind in zip(offsets, kinds):
            tenant = next(tenants[kind])
            slot = rng.randrange(self.HOT)
            if kind == "new":
                members = next(self.cold[tenant])
                self.hot[tenant][slot] = (f"{tenant}new{self.next_name}", members)
                self.next_name += 1
            elif kind == "drift":
                name, members = self.hot[tenant][slot]
                swapped = list(members)
                swapped[rng.randrange(len(swapped))] = next(
                    applicant for applicant in self.fresh if applicant not in members)
                self.hot[tenant][slot] = (name, tuple(swapped))
            copies = self.BURST if kind == "burst" else 1
            schedule.append((offset, tenant, self.hot[tenant][slot], copies))
        return schedule

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        with frozen_heap():
            return self.loop.run_until_complete(self._measure(seconds, tracer))

    def capacity(self, seconds: float) -> float:
        """Arrivals per second the gateway completes when no client waits.

        Runs the arrivals of a *seconds*-long phase closed-loop: each of
        ``WORKERS`` clients sends the next arrival (a burst's copies at
        once) as soon as its previous one has completed.  ``RATE`` is set
        as a share of this figure.
        """
        return self.loop.run_until_complete(self._capacity(self._schedule(seconds)))

    async def _capacity(self, schedule) -> float:
        arrivals = len(schedule)

        async def client():
            while schedule:
                _, tenant, members, copies = schedule.pop(0)
                await asyncio.gather(*(self._explain(tenant, labeling_of(*members, self.LABELLED))
                                       for _ in range(copies)))

        start = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(WORKERS)))
        return arrivals / (time.perf_counter() - start)

    async def _measure(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        phase = Phase()
        schedule = self._schedule(seconds)
        self.clock.probe()
        start = time.perf_counter()
        tasks = []
        for offset, tenant, members, copies in schedule:
            due = start + offset
            await self._probe_when_idle(due)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lags.append(time.perf_counter() - due)
            for _ in range(copies):
                # A fresh object per copy: identical content, as separate
                # clients would send it.
                labeling = labeling_of(*members, self.LABELLED)
                self.in_flight += 1
                self.idle.clear()
                tasks.append(asyncio.ensure_future(
                    self._client(phase, tenant, labeling, due, tracer)))
        await asyncio.gather(*tasks)
        phase.wall = time.perf_counter() - start
        self.clock.probe()
        return phase

    async def _probe_when_idle(self, due: float) -> None:
        """Once no request is in flight, collect garbage and probe the host, as time allows.

        An idle probe contends with no worker for the interpreter, so it
        times the host, not the program's load.  Collecting while idle and
        freezing the survivors, as the closed loops do between operations
        (see :func:`quiesce`), keeps the collector's full collections
        (about 0.08 s each on this heap, a few a run) from landing inside a
        request and on everything queued behind it.
        """
        delay = due - time.perf_counter() - self.PROBE_GAP_S
        if delay <= 0:
            return
        if self.in_flight:
            try:
                await asyncio.wait_for(self.idle.wait(), delay)
            except asyncio.TimeoutError:
                return
        if due - time.perf_counter() > self.COLLECT_GAP_S:
            gc.collect()
            gc.freeze()
        if due - time.perf_counter() > self.PROBE_GAP_S:
            self.clock.probe()

    async def _client(self, phase: Phase, tenant: str, labeling: Labeling, due: float,
                      tracer: Optional[Tracer]) -> None:
        phase.attempted += 1
        if tracer is not None:
            request, span = tracer.new_id(), tracer.new_id()
            tracer.links[id(labeling)] = (request, span)
        try:
            report = await self._explain(tenant, labeling)
        except (GatewayOverloaded, GatewayTimeout):  # 503 shed, 504 timeout
            phase.errors += 1
            return
        finally:
            finished = time.perf_counter()
            self.in_flight -= 1
            if self.in_flight == 0:
                self.idle.set()
            if tracer is not None:
                tracer.links.pop(id(labeling), None)
                tracer.record(request, span, None, "request",
                              int(due * 1e9), int(finished * 1e9))
        phase.reads.append((due, finished))
        phase.completed += 1
        key = (tenant, labeling.signature())
        self.served.add(key, report)
        self.labelings[key] = labeling

    def check(self) -> int:
        """One fresh oracle system per tenant, on a copy of its database."""
        failed = 0
        explainers = {}
        for key in self.served.reports:
            tenant = key[0]
            if tenant not in explainers:
                explainers[tenant] = OntologyExplainer(
                    oracle_system(build_loan_system(self.databases[tenant].with_backend(tenant)))
                )
            report = explainers[tenant].explain(
                self.labelings[key], candidates=self.pools[tenant], top_k=10
            )
            failed += self.served.mismatches(key, report)
        return failed

    def layer_counts(self) -> Dict[str, int]:
        registry = self.gateway.registry
        services = [registry.service(tenant) for tenant, _ in self.TENANTS]
        counts: Dict[str, int] = {}
        for service in services:
            for prefix, stats in (("cache", service.cache_stats), ("service", service.stats)):
                for name, value in stats.as_dict().items():
                    counts[f"{prefix}.{name}"] = counts.get(f"{prefix}.{name}", 0) + value
        counts.update({f"gateway.{k}": v for k, v in self.gateway.stats.as_dict().items()
                       if isinstance(v, int)})
        return counts

    def close(self) -> None:
        if self.gateway is not None:
            self.loop.run_until_complete(self.gateway.aclose())
            self.gateway = None
        self.loop.close()


WORKLOADS = {cls.name: cls for cls in (ExplainCold, ServiceStream, GatewayPool)}
