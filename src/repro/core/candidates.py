"""Bottom-up generation of candidate explanation queries.

The paper's framework (Definition 3.7) quantifies over *all* queries of
a language ``L_O``, which is infinite.  A practical search needs a
finite, relevant candidate space.  This module builds candidates
bottom-up from the data, mirroring how the example queries of
Example 3.6 relate to the borders of the positive tuples:

1. for every positive tuple ``t``, compute its border ``B_{t,r}(D)`` and
   retrieve+saturate the corresponding ontology facts (so that axiom-
   derived atoms such as ``likes(A10, 'Math')`` are available);
2. abstract the facts into query atoms: the components of ``t`` become
   answer variables, the remaining constants become either variables or
   constants (both variants are generated, governed by the policy);
3. enumerate connected sub-conjunctions up to ``max_atoms`` atoms that
   mention every answer variable.  Subsets are *grown* from the facts
   that mention an answer constant, one fact at a time, through a
   constant → fact adjacency of the border, so the work is proportional
   to the connected subsets rather than to all ``≤ max_atoms``-subsets
   of the border; each size class comes out in sorted fact-index order,
   which is exactly ``itertools.combinations`` order;
4. deduplicate by canonical signature (and optionally semantically),
   computing the signature on the abstracted body so a query object is
   built only for an unseen one.

A seed's pool is a function of its border's content and the generator's
configuration, so it is tabled in the specification's shared
:class:`~repro.engine.cache.EvaluationCache` under exactly that key
(answer tabling keyed by the call pattern): a long-lived service asking
for the same positive tuple again reuses the pool, and a database write
that changes the border changes the key.

The resulting pool contains, for the paper's university example, the
queries ``q1``, ``q2`` and ``q3`` of Example 3.6 among others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import QueryArityError, UnsafeQueryError
from ..obdm.chase import ChaseEngine, is_labelled_null
from ..obdm.system import OBDMSystem
from ..queries.atoms import Atom
from ..queries.containment import deduplicate_queries
from ..queries.cq import ConjunctiveQuery, canonical_signature
from ..queries.terms import Constant, Term, Variable, VariableFactory
from .border import Border, BorderComputer
from .labeling import ConstantTuple, Labeling, normalize_tuple


@dataclass(frozen=True)
class CandidateConfig:
    """Tuning knobs of the candidate generator."""

    max_atoms: int = 3
    """Largest number of atoms in a generated conjunction."""

    max_kept_constants: int = 2
    """Largest number of non-answer constants kept (not variabilised) per query."""

    max_candidates: int = 2000
    """Hard cap on the size of the returned pool."""

    saturate: bool = True
    """Chase the border ABox with the ontology before abstraction."""

    include_most_specific: bool = False
    """Also emit, per positive tuple, the full (possibly large) border query."""

    semantic_deduplication: bool = False
    """Additionally remove semantically equivalent queries (slower)."""

    max_positive_seeds: Optional[int] = None
    """Use only the first N positive tuples as seeds (None = all)."""


class CandidatePool(List[ConjunctiveQuery]):
    """A generated candidate pool plus its generation accounting.

    A plain list of queries (drop-in for every existing consumer) that
    also reports how the pool was shaped: ``generated`` distinct
    candidates were materialised, ``truncated`` of them were dropped by
    the deterministic ``max_candidates`` cutoff, ``unexplored_seeds``
    positive tuples were never abstracted because the pool was already
    full, and — when a :class:`~repro.engine.kernel.ProvenancePruner`
    was supplied — ``pruned`` of ``checked`` candidate bodies were
    discarded *before* materialisation because their AND-of-supports
    bound was zero.

    ``generated``/``truncated`` only cover the seeds that were explored;
    :attr:`exhausted` is the flag that says the numbers describe the
    *whole* candidate space (no cutoff fired anywhere).
    """

    def __init__(
        self,
        queries: Iterable[ConjunctiveQuery] = (),
        generated: int = 0,
        truncated: int = 0,
        pruned: int = 0,
        checked: int = 0,
        unexplored_seeds: int = 0,
    ):
        super().__init__(queries)
        self.generated = generated
        self.truncated = truncated
        self.pruned = pruned
        self.checked = checked
        self.unexplored_seeds = unexplored_seeds

    @property
    def exhausted(self) -> bool:
        """True when enumeration ran to completion (nothing was cut off)."""
        return self.truncated == 0 and self.unexplored_seeds == 0

    def __str__(self):
        return (
            f"CandidatePool(size={len(self)}, generated={self.generated}, "
            f"truncated={self.truncated}, unexplored_seeds={self.unexplored_seeds}, "
            f"pruned={self.pruned})"
        )


class CandidateGenerator:
    """Generates candidate CQs from the borders of the positive examples."""

    def __init__(
        self,
        system: OBDMSystem,
        radius: int = 1,
        config: Optional[CandidateConfig] = None,
        border_computer: Optional[BorderComputer] = None,
    ):
        self.system = system
        self.radius = radius
        self.config = config or CandidateConfig()
        self.borders = border_computer or BorderComputer(system.database)
        self._cache = system.specification.engine.cache
        self._skipped_variants = 0

    # -- public API --------------------------------------------------------

    def generate(self, labeling: Labeling, pruner=None) -> CandidatePool:
        """Candidate pool for a labeling (seeded by its positive tuples).

        With a :class:`~repro.engine.kernel.ProvenancePruner`, candidate
        bodies whose provenance bound is zero are skipped before the
        query object is even built (the pool reports how many).

        The ``max_candidates`` cutoff is deterministic: candidates carry
        a stable canonical ordering — seeds sorted by ``repr``, bodies
        per seed in ascending atom count over lexicographically sorted
        fact subsets — and truncation keeps exactly the first
        ``max_candidates`` of it.  Seeds beyond the one that fills the
        pool are never abstracted (borders can hold hundreds of facts,
        so running every seed to completion just to count the tail would
        dwarf the search itself); instead the cutoff is *surfaced*:
        ``truncated`` counts the overflowing seed's dropped remainder,
        ``unexplored_seeds`` the seeds never visited, and
        ``pool.exhausted`` is True exactly when neither fired — i.e.
        when ``generated`` describes the complete candidate space.

        Each seed's candidates come from :meth:`candidates_for`, which
        reuses a tabled pool when the seed's border content was seen
        before; the accounting above is recomputed on every call, so a
        tabled pool is reported exactly like a freshly enumerated one.
        """
        seeds = sorted(labeling.positives, key=repr)
        if self.config.max_positive_seeds is not None:
            seeds = seeds[: self.config.max_positive_seeds]
        checked_before = pruner.checked if pruner is not None else 0
        self._skipped_variants = 0
        pool: List[ConjunctiveQuery] = []
        seen: Set[Tuple] = set()
        truncated = 0
        unexplored_seeds = 0
        for index, seed in enumerate(seeds):
            if len(pool) >= self.config.max_candidates:
                unexplored_seeds = len(seeds) - index
                break
            for candidate in self.candidates_for(seed, pruner=pruner):
                signature = candidate.signature()
                if signature in seen:
                    continue
                seen.add(signature)
                if len(pool) < self.config.max_candidates:
                    pool.append(candidate)
                else:
                    truncated += 1
        generated = len(pool) + truncated
        if self.config.semantic_deduplication:
            pool = deduplicate_queries(pool)
        return CandidatePool(
            pool,
            generated=generated,
            truncated=truncated,
            pruned=self._skipped_variants,
            checked=(pruner.checked - checked_before) if pruner is not None else 0,
            unexplored_seeds=unexplored_seeds,
        )

    def candidates_for(self, raw, pruner=None) -> List[ConjunctiveQuery]:
        """Candidate queries abstracted from one positive tuple's border.

        Without a pruner the result is tabled in the shared evaluation
        cache, keyed by the tuple, its border's atoms and the
        configuration fields the abstraction reads.  The key is the
        content the pool is computed from, so it can never be stale; a
        fresh list is returned because callers extend pools.  Calls
        with a pruner depend on the pruner's labeling and are not tabled.
        """
        key = normalize_tuple(raw)
        border = self.borders.border(key, self.radius)
        if pruner is not None:
            return self._abstract(key, border, pruner)
        config = self.config
        table_key = (
            key,
            border.atoms,
            config.max_atoms,
            config.max_kept_constants,
            config.saturate,
            config.include_most_specific,
        )
        return list(
            self._cache.candidate_pool(table_key, lambda: tuple(self._abstract(key, border)))
        )

    def _abstract(self, key: ConstantTuple, border: Border, pruner=None) -> List[ConjunctiveQuery]:
        facts = self._ontology_facts(border)
        if not facts:
            return []
        answer_variables = tuple(Variable(f"x{i}") for i in range(len(key)))
        abstraction = _BorderAbstraction(key, answer_variables, facts)
        candidates = abstraction.enumerate(
            max_atoms=self.config.max_atoms,
            max_kept_constants=self.config.max_kept_constants,
            pruner=pruner,
        )
        self._skipped_variants += abstraction.skipped
        if self.config.include_most_specific:
            most_specific = abstraction.most_specific_query()
            if most_specific is not None:
                if pruner is None or pruner.admits(most_specific.body):
                    candidates.append(most_specific)
                else:
                    self._skipped_variants += 1
        return candidates

    # -- helpers -------------------------------------------------------------

    def _ontology_facts(self, border: Border) -> FrozenSet[Atom]:
        """Retrieved (and optionally saturated) ontology facts of a border."""
        sub_database = self.system.database.restrict_to(border.atoms)
        abox = self.system.specification.retrieve_abox(sub_database)
        facts = set(abox.facts)
        if self.config.saturate:
            # A fresh chase per border: labelled-null names then depend on
            # the border alone, as the tabled pool's key requires.
            facts = set(ChaseEngine(self.system.ontology).chase(facts))
        # Atoms whose every argument is a labelled null cannot contribute a
        # useful query atom (they would become a disconnected conjunct).
        return frozenset(
            fact
            for fact in facts
            if not all(is_labelled_null(argument) for argument in fact.args)
        )


class _BorderAbstraction:
    """Turns the ontology facts of one border into candidate query bodies."""

    def __init__(
        self,
        key: ConstantTuple,
        answer_variables: Tuple[Variable, ...],
        facts: FrozenSet[Atom],
    ):
        self.key = key
        self.answer_variables = answer_variables
        self.facts = sorted(facts)
        # Upper bound on how many abstracted bodies the last enumerate()
        # call skipped via its pruner (variant-weighted, see enumerate).
        self.skipped = 0
        self._constant_to_term: Dict[Constant, Term] = {}
        factory = VariableFactory(prefix="y")
        for constant, variable in zip(key, answer_variables):
            self._constant_to_term[constant] = variable
        self._other_variable: Dict[Constant, Variable] = {}
        self._abstracted: Dict[Tuple[Atom, FrozenSet[Constant]], Atom] = {}
        for fact in self.facts:
            for argument in fact.args:
                if argument not in self._constant_to_term and argument not in self._other_variable:
                    self._other_variable[argument] = factory.fresh()

    # -- abstraction ------------------------------------------------------------

    def _abstract_atom(self, fact: Atom, kept: FrozenSet[Constant]) -> Atom:
        # A fact recurs in many subsets under the same kept constants.
        atom = self._abstracted.get((fact, kept))
        if atom is None:
            arguments: List[Term] = []
            for argument in fact.args:
                if argument in self._constant_to_term:
                    arguments.append(self._constant_to_term[argument])
                elif argument in kept and not is_labelled_null(argument):
                    arguments.append(argument)
                else:
                    arguments.append(self._other_variable[argument])
            atom = self._abstracted[(fact, kept)] = Atom(fact.predicate, tuple(arguments))
        return atom

    def _answer_constants(self) -> Set[Constant]:
        return set(self.key)

    def _mentions_answer(self, fact: Atom) -> bool:
        answers = self._answer_constants()
        return any(argument in answers for argument in fact.args)

    # -- enumeration -----------------------------------------------------------------

    def enumerate(
        self, max_atoms: int, max_kept_constants: int, pruner=None
    ) -> List[ConjunctiveQuery]:
        """All connected sub-conjunctions up to ``max_atoms`` atoms.

        Fact subsets come from :meth:`admissible_subsets`, in ascending
        size and, within a size, in sorted fact-index order.  Each
        abstracted body's canonical signature is computed first and a
        :class:`ConjunctiveQuery` is built only for an unseen one.

        With a pruner, each admissible subset is first checked through
        its *widest* abstraction (no constants kept: variabilising an
        argument only ever widens an atom's provenance support, so a
        zero bound there proves a zero bound for every kept-constant
        variant and the whole subset is skipped); surviving non-empty
        ``kept`` variants are then checked individually, all before any
        :class:`ConjunctiveQuery` is materialised.
        """
        queries: List[ConjunctiveQuery] = []
        seen: Set[Tuple] = set()
        self.skipped = 0
        for indexes in self.admissible_subsets(max_atoms):
            subset = tuple(self.facts[index] for index in indexes)
            if pruner is not None and not pruner.admits(
                tuple(self._abstract_atom(fact, frozenset()) for fact in subset)
            ):
                # The whole subset dies; count every kept-constant
                # variant it would have produced, so callers can
                # bound how many queries pruning hid (the cutoff
                # certificate in BestDescriptionSearch.search needs
                # an upper bound, not the number of oracle calls).
                self.skipped += sum(
                    1 for _ in self._constant_subsets(subset, max_kept_constants)
                )
                continue
            for kept in self._constant_subsets(subset, max_kept_constants):
                body = tuple(self._abstract_atom(fact, kept) for fact in subset)
                if pruner is not None and kept and not pruner.admits(body):
                    self.skipped += 1
                    continue
                signature = canonical_signature(self.answer_variables, body)
                if signature in seen:
                    continue
                query = self._safe_query(body, signature)
                if query is not None:
                    seen.add(signature)
                    queries.append(query)
        return queries

    def admissible_subsets(self, max_atoms: int) -> Iterator[Tuple[int, ...]]:
        """Sorted index tuples of the admissible fact subsets.

        A subset is admissible when it covers every answer constant and
        each of its facts is reachable from an answer constant through
        constants (labelled nulls included) shared within the subset.
        Such subsets are grown from the facts mentioning an answer
        constant, one adjacent fact at a time: every admissible subset
        of size ``k + 1`` drops a fact and stays connected, so growing
        every connected subset of size ``k`` reaches it.  A size class
        is yielded sorted, which is ``itertools.combinations`` order.
        """
        answers = self._answer_constants()
        answer_bits = {constant: 1 << bit for bit, constant in enumerate(answers)}
        full_cover = (1 << len(answers)) - 1
        by_constant: Dict[Constant, List[int]] = {}
        cover: List[int] = []
        for index, fact in enumerate(self.facts):
            bits = 0
            for argument in set(fact.args):
                by_constant.setdefault(argument, []).append(index)
                bits |= answer_bits.get(argument, 0)
            cover.append(bits)
        roots = {index for index, bits in enumerate(cover) if bits}
        level = {(index,) for index in roots}
        for size in range(1, max_atoms + 1):
            ordered = sorted(level)
            for indexes in ordered:
                bits = 0
                for index in indexes:
                    bits |= cover[index]
                if bits == full_cover:
                    yield indexes
            if size == max_atoms:
                return
            level = set()
            for indexes in ordered:
                reach = set(roots)
                for index in indexes:
                    for argument in self.facts[index].args:
                        reach.update(by_constant[argument])
                reach.difference_update(indexes)
                for index in reach:
                    level.add(tuple(sorted(indexes + (index,))))

    def most_specific_query(self) -> Optional[ConjunctiveQuery]:
        """The full border query with every non-answer constant kept."""
        usable = [fact for fact in self.facts]
        if not usable:
            return None
        kept = frozenset(
            constant for constant in self._other_variable if not is_labelled_null(constant)
        )
        body = tuple(self._abstract_atom(fact, kept) for fact in usable)
        return self._safe_query(body)

    # -- abstraction variants ----------------------------------------------------------

    def _constant_subsets(
        self, subset: Sequence[Atom], max_kept_constants: int
    ) -> Iterable[FrozenSet[Constant]]:
        """Which non-answer constants to keep: none, all (capped), singletons."""
        answers = self._answer_constants()
        others: List[Constant] = []
        for fact in subset:
            for argument in fact.args:
                if (
                    argument not in answers
                    and not is_labelled_null(argument)
                    and argument not in others
                ):
                    others.append(argument)
        yielded: Set[FrozenSet[Constant]] = set()

        def emit(kept: FrozenSet[Constant]):
            if kept not in yielded:
                yielded.add(kept)
                return True
            return False

        if emit(frozenset()):
            yield frozenset()
        for constant in others:
            kept = frozenset({constant})
            if emit(kept):
                yield kept
        if len(others) <= max_kept_constants:
            kept = frozenset(others)
            if emit(kept):
                yield kept

    def _safe_query(
        self, body: Tuple[Atom, ...], signature: Optional[Tuple] = None
    ) -> Optional[ConjunctiveQuery]:
        """Build a CQ, returning ``None`` when the head would be unsafe."""
        try:
            if signature is not None:
                return ConjunctiveQuery.with_signature(self.answer_variables, body, signature)
            return ConjunctiveQuery(self.answer_variables, body)
        except (QueryArityError, UnsafeQueryError):
            return None
