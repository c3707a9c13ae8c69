"""Differential suite for the bottom-up candidate generator.

The generator grows admissible fact subsets from the facts that mention
an answer constant (:meth:`_BorderAbstraction.admissible_subsets`) and
tables each seed's pool in the shared evaluation cache.  The reference
is the brute-force enumerator it replaced, kept here as the oracle:
every ``≤ max_atoms``-subset of the border in ``itertools.combinations``
order, filtered by the connectivity/coverage check.  This suite pins

* **identical subsets** — growth yields exactly the oracle's ordered
  index tuples on every positive seed's border of all four domains, on
  2-column labelings, on saturated borders carrying labelled nulls and on
  random small fact graphs;
* **identical pools** — same queries (``str``, ``signature()``, order)
  and the same :class:`CandidatePool` accounting, also under a
  truncating ``max_candidates`` and with a provenance pruner;
* **the tabling lifecycle** — warm repeats and same-positive drifts hit
  the table, a write that changes a seed's border misses and serves what
  a fresh explainer serves, a disabled cache never tables, and snapshots
  do not carry pools.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Set
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import candidates as candidates_module
from repro.core.best_describe import BestDescriptionSearch
from repro.core.candidates import (
    CandidateConfig,
    CandidateGenerator,
    _BorderAbstraction,
)
from repro.core.explainer import OntologyExplainer
from repro.core.labeling import Labeling, normalize_tuple
from repro.dl.ontology import subclass
from repro.dl.syntax import AtomicRole, ExistentialRestriction
from repro.experiments.kernel_exp import PROBE_DOMAINS, build_probe_system, probe_labeling
from repro.obdm.chase import NULL_PREFIX, is_labelled_null
from repro.obdm.database import DatabaseDelta
from repro.obdm.specification import OBDMSpecification
from repro.obdm.system import OBDMSystem
from repro.ontologies.loans import build_loan_mapping, build_loan_ontology, build_loan_schema
from repro.queries.atoms import Atom
from repro.queries.terms import Constant, Variable
from repro.service import ExplanationService
from repro.workloads.loans_gen import LoanWorkloadConfig, generate_loan_workload

# -- the brute-force oracle -----------------------------------------------------


def _oracle_is_admissible(abstraction: _BorderAbstraction, subset: Sequence[Atom]) -> bool:
    """Covers every answer constant and is connected to them (all arguments)."""
    answers = set(abstraction.key)
    covered = set()
    for fact in subset:
        covered |= {argument for argument in fact.args if argument in answers}
    if covered != answers:
        return False
    remaining = list(subset)
    frontier: Set[Constant] = set(answers)
    changed = True
    while changed:
        changed = False
        for fact in list(remaining):
            if any(argument in frontier for argument in fact.args):
                remaining.remove(fact)
                frontier |= set(fact.args)
                changed = True
    return not remaining


class OracleAbstraction(_BorderAbstraction):
    """The pre-growth enumerator: combinations, filter, build, then dedupe.

    ``subsets`` records the admissible index tuples of the last call.
    """

    def enumerate(self, max_atoms, max_kept_constants, pruner=None):
        queries = []
        seen = set()
        self.skipped = 0
        self.subsets = []
        for size in range(1, max_atoms + 1):
            for indexes in itertools.combinations(range(len(self.facts)), size):
                subset = tuple(self.facts[index] for index in indexes)
                if not _oracle_is_admissible(self, subset):
                    continue
                self.subsets.append(indexes)
                if pruner is not None and not pruner.admits(
                    tuple(self._abstract_atom(fact, frozenset()) for fact in subset)
                ):
                    self.skipped += sum(
                        1 for _ in self._constant_subsets(subset, max_kept_constants)
                    )
                    continue
                for kept in self._constant_subsets(subset, max_kept_constants):
                    body = tuple(self._abstract_atom(fact, kept) for fact in subset)
                    if pruner is not None and kept and not pruner.admits(body):
                        self.skipped += 1
                        continue
                    query = self._safe_query(body)
                    if query is None:
                        continue
                    signature = query.signature()
                    if signature not in seen:
                        seen.add(signature)
                        queries.append(query)
        return queries


def _oracle_generate(system: OBDMSystem, labeling, config=None, pruner=None):
    """The brute-force generator's pool and each explored seed's subsets.

    The cache is disabled, so nothing is tabled.
    """
    abstractions: List[OracleAbstraction] = []

    class Recording(OracleAbstraction):
        def __init__(self, *args):
            super().__init__(*args)
            abstractions.append(self)

    system.specification.engine.cache.enabled = False
    with mock.patch.object(candidates_module, "_BorderAbstraction", Recording):
        pool = CandidateGenerator(system, 1, config).generate(labeling, pruner=pruner)
    return pool, {abstraction.key: abstraction.subsets for abstraction in abstractions}


def _pool_identity(pool):
    return (
        [str(query) for query in pool],
        [query.signature() for query in pool],
        (pool.generated, pool.truncated, pool.pruned, pool.checked, pool.unexplored_seeds),
    )


def _abstraction(system: OBDMSystem, raw, config=None) -> _BorderAbstraction:
    generator = CandidateGenerator(system, 1, config)
    key = normalize_tuple(raw)
    facts = generator._ontology_facts(generator.borders.border(key, 1))
    answer_variables = tuple(Variable(f"x{i}") for i in range(len(key)))
    return _BorderAbstraction(key, answer_variables, facts)


def _assert_matches_oracle(system_factory, labeling, config=None, pruner_factory=None):
    """Growth + tabling against the oracle: pool, accounting and subsets."""
    system = system_factory()
    pruner = pruner_factory(system) if pruner_factory is not None else None
    pool = CandidateGenerator(system, 1, config).generate(labeling, pruner=pruner)
    reference = system_factory()
    oracle_pruner = pruner_factory(reference) if pruner_factory is not None else None
    expected, subsets = _oracle_generate(reference, labeling, config, oracle_pruner)
    assert _pool_identity(pool) == _pool_identity(expected)
    if pruner is not None:
        assert (pruner.checked, pruner.pruned) == (oracle_pruner.checked, oracle_pruner.pruned)
    max_atoms = (config or CandidateConfig()).max_atoms
    for seed, oracle_subsets in subsets.items():
        grown = list(_abstraction(system, seed, config).admissible_subsets(max_atoms))
        assert grown == oracle_subsets, f"growth diverged on the border of {seed}"
    return pool, subsets


# -- systems ----------------------------------------------------------------------


def _two_column_labeling(system: OBDMSystem) -> Labeling:
    constants = sorted(system.domain(), key=repr)[:6]
    return Labeling(
        positives=[(constants[0], constants[1]), (constants[2], constants[3])],
        negatives=[(constants[4], constants[5])],
        name="pairs",
    )


def _null_system() -> OBDMSystem:
    """Loans with ``Applicant ⊑ ∃guaranteedBy``: the chase invents guarantors."""
    ontology = build_loan_ontology()
    ontology.add_axiom(subclass("Applicant", ExistentialRestriction(AtomicRole("guaranteedBy"))))
    specification = OBDMSpecification(
        ontology, build_loan_schema(), build_loan_mapping(), name="loan_nulls"
    )
    database = generate_loan_workload(LoanWorkloadConfig(applicants=6, seed=7)).database
    return OBDMSystem(specification, database, name="loan_nulls")


# -- identical subsets, pools and accounting ----------------------------------------


class TestGeneratorMatchesOracle:
    @pytest.mark.parametrize(
        "domain, labeling_of",
        [(domain, probe_labeling) for domain in PROBE_DOMAINS]
        # The loan and compas pairs' borders are the largest; the oracle
        # is cubic in border size, so pairs run on the two smaller domains.
        + [("university", _two_column_labeling), ("movies", _two_column_labeling)],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_every_positive_border(self, domain, labeling_of):
        labeling = labeling_of(build_probe_system(domain))
        config = CandidateConfig(max_candidates=100_000)
        pool, subsets = _assert_matches_oracle(
            lambda: build_probe_system(domain), labeling, config
        )
        assert pool.exhausted
        assert set(subsets) == set(labeling.positives)

    def test_saturated_border_with_labelled_nulls(self):
        labeling = Labeling(positives=["APP0000", "APP0001"], negatives=["APP0002"])
        config = CandidateConfig(include_most_specific=True)
        _, subsets = _assert_matches_oracle(_null_system, labeling, config)
        assert len(subsets) == 2
        abstraction = _abstraction(_null_system(), "APP0000", config)
        assert any(
            is_labelled_null(argument) for fact in abstraction.facts for argument in fact.args
        ), "the chase should have invented a guarantor"

    @pytest.mark.parametrize("domain", PROBE_DOMAINS)
    def test_truncation_inside_a_seed(self, domain):
        system = build_probe_system(domain)
        labeling = probe_labeling(system)
        first_seed = sorted(labeling.positives, key=repr)[0]
        seed_pool = CandidateGenerator(system, 1).candidates_for(first_seed)
        assert len(seed_pool) > 2
        config = CandidateConfig(max_candidates=len(seed_pool) // 2)
        pool, _ = _assert_matches_oracle(lambda: build_probe_system(domain), labeling, config)
        assert pool.truncated > 0 and pool.unexplored_seeds > 0

    @pytest.mark.parametrize("domain", PROBE_DOMAINS)
    def test_with_provenance_pruner(self, domain):
        labeling = probe_labeling(build_probe_system(domain))

        def pruner_for(system):
            return BestDescriptionSearch(system, labeling).scorer.verdict_matrix().pruner()

        systems = []

        def tracked_system():
            systems.append(build_probe_system(domain))
            return systems[-1]

        pool, _ = _assert_matches_oracle(tracked_system, labeling, pruner_factory=pruner_for)
        assert pool.checked > 0
        # Pruned calls depend on the labeling and are never tabled.
        assert systems[0].specification.engine.cache.size_report()["candidate_pools"] == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        facts=st.lists(
            st.one_of(
                st.tuples(st.sampled_from("PQ"), st.integers(0, 5)),
                st.tuples(st.sampled_from("RS"), st.integers(0, 5), st.integers(0, 5)),
            ),
            min_size=1,
            max_size=9,
            unique=True,
        ),
        key=st.lists(st.integers(0, 2), min_size=1, max_size=2),
        nulls=st.sets(st.integers(3, 5)),
        max_atoms=st.integers(1, 4),
    )
    def test_random_fact_graphs(self, facts, key, nulls, max_atoms):
        def term(value: int) -> Constant:
            return Constant(f"{NULL_PREFIX}{value}" if value in nulls else f"c{value}")

        atoms = {Atom(fact[0], tuple(term(value) for value in fact[1:])) for fact in facts}
        atoms = frozenset(
            atom for atom in atoms if not all(is_labelled_null(arg) for arg in atom.args)
        )
        answers = tuple(Constant(f"c{value}") for value in key)
        answer_variables = tuple(Variable(f"x{i}") for i in range(len(answers)))
        growth = _BorderAbstraction(answers, answer_variables, atoms)
        oracle = OracleAbstraction(answers, answer_variables, atoms)
        grown = growth.enumerate(max_atoms, max_kept_constants=2)
        expected = oracle.enumerate(max_atoms, max_kept_constants=2)
        assert list(growth.admissible_subsets(max_atoms)) == oracle.subsets
        assert [str(q) for q in grown] == [str(q) for q in expected]
        assert [q.signature() for q in grown] == [q.signature() for q in expected]


# -- tabling lifecycle ----------------------------------------------------------------


def _pool_counts(cache):
    return cache.stats.candidate_pool_hits, cache.stats.candidate_pool_misses


def _service() -> ExplanationService:
    return ExplanationService(build_probe_system("university"))


@pytest.mark.service
class TestPoolTabling:
    def test_warm_repeat_and_drift_hit(self):
        service = _service()
        labeling = probe_labeling(service.system)
        seeds = len(labeling.positives)
        first = service.explain(labeling).render()
        assert _pool_counts(service.cache) == (0, seeds)
        assert service.cache.size_report()["candidate_pools"] == seeds
        assert service.explain(labeling).render() == first
        assert _pool_counts(service.cache) == (seeds, seeds)
        constants = sorted(service.system.domain(), key=repr)
        drifted = Labeling(
            positives=labeling.positives,
            negatives=list(labeling.negatives)[:2] + [constants[7]],
            name=labeling.name,
        )
        service.explain(drifted)
        assert service.stats.drift_updates == 1
        assert _pool_counts(service.cache) == (2 * seeds, seeds)

    def test_write_touching_a_border_misses_and_matches_fresh(self):
        service = _service()
        labeling = probe_labeling(service.system)
        service.explain(labeling)
        seed = sorted(labeling.positives, key=repr)[0]
        victim = sorted(service.system.database.facts_with_constant(seed[0]), key=str)[0]
        replacement = Atom(victim.predicate, victim.args[:-1] + (Constant("FRESH"),))
        delta = DatabaseDelta.of([replacement], [victim])
        pools_before = service.cache.size_report()["candidate_pools"]
        counts = service.apply_delta(delta)
        assert counts["borders_touched"] > 0
        assert service.cache.size_report()["candidate_pools"] < pools_before
        misses = service.cache.stats.candidate_pool_misses
        served = service.explain(labeling).render(top_k=None)
        assert service.cache.stats.candidate_pool_misses > misses
        reference = build_probe_system("university")
        reference.database.apply_delta(delta)
        reference.invalidate()
        fresh = OntologyExplainer(reference).explain(labeling)
        assert served == fresh.render(top_k=None)

    def test_disabled_cache_never_tables(self):
        system = build_probe_system("university", cache=False)
        labeling = probe_labeling(system)
        generator = CandidateGenerator(system, 1)
        assert [str(q) for q in generator.generate(labeling)] == [
            str(q) for q in generator.generate(labeling)
        ]
        cache = system.specification.engine.cache
        assert cache.size_report()["candidate_pools"] == 0
        assert cache.stats.candidate_pool_hits == 0

    def test_hit_returns_a_fresh_list(self):
        system = build_probe_system("university")
        generator = CandidateGenerator(system, 1)
        seed = sorted(probe_labeling(system).positives, key=repr)[0]
        first = generator.candidates_for(seed)
        first.clear()
        assert generator.candidates_for(seed)

    def test_snapshot_round_trip_without_pools(self, tmp_path):
        service = _service()
        labeling = probe_labeling(service.system)
        rendered = service.explain(labeling).render()
        assert service.cache.size_report()["candidate_pools"] > 0
        assert "candidate_pools" not in service.cache.snapshot_state()
        path = tmp_path / "cache.snapshot"
        service.save(path)
        restarted = _service()
        restarted.load(path)
        assert restarted.cache.size_report()["candidate_pools"] == 0
        assert restarted.explain(labeling).render() == rendered
