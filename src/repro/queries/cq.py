"""Conjunctive queries (CQs).

A conjunctive query is a select-project-join query written in rule form::

    q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, 'Rome')

The head lists the *distinguished* (answer) variables; the body is a
conjunction of atoms.  CQs are the query language the paper uses for
explanations (``L_O = CQ``), for mapping source queries, and as the
disjuncts of UCQs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from ..errors import QueryArityError, UnsafeQueryError
from .atoms import Atom, Substitution, apply_substitution, atoms_constants, atoms_variables
from .terms import Constant, Term, Variable, VariableFactory, is_constant, is_variable, make_term


@dataclass(frozen=True)
class ConjunctiveQuery:
    """An immutable conjunctive query ``name(head) :- body``."""

    head: Tuple[Variable, ...]
    body: Tuple[Atom, ...]
    name: str = "q"

    def __post_init__(self):
        head = tuple(make_term(v) for v in self.head)
        if not all(is_variable(v) for v in head):
            raise QueryArityError("CQ head must contain only variables")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", tuple(self.body))
        if not self.body:
            raise QueryArityError("CQ body must contain at least one atom")
        body_vars = atoms_variables(self.body)
        missing = [v for v in head if v not in body_vars]
        if missing:
            rendered = ", ".join(v.name for v in missing)
            raise UnsafeQueryError(
                f"head variables {{{rendered}}} do not occur in the body"
            )

    # -- constructors --------------------------------------------------

    @staticmethod
    def of(head: Sequence, body: Iterable[Atom], name: str = "q") -> "ConjunctiveQuery":
        """Convenience constructor accepting raw strings in the head."""
        return ConjunctiveQuery(tuple(make_term(v) for v in head), tuple(body), name)

    # -- basic properties ----------------------------------------------

    @property
    def arity(self) -> int:
        """Number of answer variables."""
        return len(self.head)

    def is_boolean(self) -> bool:
        """``True`` when the query has no answer variables."""
        return not self.head

    def variables(self) -> Set[Variable]:
        """All variables occurring in the query body."""
        return atoms_variables(self.body)

    def existential_variables(self) -> Set[Variable]:
        """Body variables that are not answer variables."""
        return self.variables() - set(self.head)

    def constants(self) -> Set[Constant]:
        """All constants occurring in the query body."""
        return atoms_constants(self.body)

    def predicates(self) -> Set[str]:
        """Predicate symbols used in the body."""
        return {atom.predicate for atom in self.body}

    def atom_count(self) -> int:
        """Number of body atoms (the quantity criterion δ5 measures)."""
        return len(self.body)

    # -- shared / unbound variable analysis (used by PerfectRef) --------

    def is_bound(self, term: Term) -> bool:
        """A term is *bound* if it is a constant, an answer variable, or a
        variable occurring more than once in the body."""
        if is_constant(term):
            return True
        if term in self.head:
            return True
        occurrences = 0
        for atom in self.body:
            occurrences += sum(1 for arg in atom.args if arg == term)
        return occurrences > 1

    # -- operations ------------------------------------------------------

    def apply(self, substitution: Substitution, name: Optional[str] = None) -> "ConjunctiveQuery":
        """Apply a substitution to the body (and consistently to the head).

        The substitution must not map an answer variable to a constant or
        merge two answer variables (that would change the query arity);
        if it does, a :class:`QueryArityError` is raised.
        """
        new_head = []
        for variable in self.head:
            image = substitution.get(variable, variable)
            if not is_variable(image):
                raise QueryArityError(
                    f"substitution maps answer variable {variable} to constant {image}"
                )
            new_head.append(image)
        if len(set(new_head)) != len(new_head):
            raise QueryArityError("substitution merges answer variables")
        return ConjunctiveQuery(
            tuple(new_head), apply_substitution(self.body, substitution), name or self.name
        )

    def with_body(self, body: Iterable[Atom], name: Optional[str] = None) -> "ConjunctiveQuery":
        """Return a copy of the query with a replaced body."""
        return ConjunctiveQuery(self.head, tuple(body), name or self.name)

    def with_name(self, name: str) -> "ConjunctiveQuery":
        """Return a copy of the query with a different name."""
        return ConjunctiveQuery(self.head, self.body, name)

    def add_atoms(self, atoms: Iterable[Atom]) -> "ConjunctiveQuery":
        """Return a copy of the query with extra body atoms appended."""
        return ConjunctiveQuery(self.head, self.body + tuple(atoms), self.name)

    def rename_apart(self, factory: Optional[VariableFactory] = None) -> "ConjunctiveQuery":
        """Rename every variable to a fresh one (used before unification)."""
        factory = factory or VariableFactory()
        mapping: Substitution = {v: factory.fresh() for v in sorted(self.variables())}
        return self.apply(mapping)

    def canonical_form(self) -> "ConjunctiveQuery":
        """Return a structurally canonical variant of the query.

        The variant's head and body are :func:`canonical_signature`, so
        two CQs that are equal up to variable renaming and atom ordering
        have identical canonical forms, which gives a cheap syntactic
        equivalence check (semantic equivalence is handled by
        :mod:`repro.queries.containment`).
        """
        head, body = canonical_signature(self.head, self.body)
        return ConjunctiveQuery(head, body, self.name)

    def signature(self) -> Tuple:
        """Hashable canonical signature (ignores the query name).

        The signature is memoised on the instance: it keys every cache of
        the evaluation engine (rewritings, J-match results), so it is
        computed far more often than the query changes (never — CQs are
        immutable).
        """
        cached = self.__dict__.get("_signature")
        if cached is None:
            cached = canonical_signature(self.head, self.body)
            object.__setattr__(self, "_signature", cached)
        return cached

    @classmethod
    def with_signature(
        cls, head: Sequence, body: Iterable[Atom], signature: Tuple
    ) -> "ConjunctiveQuery":
        """Build a CQ whose :func:`canonical_signature` is already known.

        Generators that deduplicate on the signature compute it before
        deciding to build a query at all; this seeds the memo so
        :meth:`signature` never recomputes it.
        """
        query = cls(tuple(head), tuple(body))
        object.__setattr__(query, "_signature", signature)
        return query

    def __str__(self):
        head = ", ".join(f"?{v.name}" for v in self.head)
        body = ", ".join(str(atom) for atom in self.body)
        return f"{self.name}({head}) :- {body}"


def canonical_signature(
    head: Sequence[Variable], body: Sequence[Atom]
) -> Tuple[Tuple[Variable, ...], Tuple[Atom, ...]]:
    """The canonical ``(head, body)`` of a CQ, up to renaming and atom order.

    Variables are renamed to ``x0, x1, ...`` following the order of first
    appearance in the head and then in the sorted body, and the renamed
    body atoms are sorted.  Safety is not checked, so callers can compute
    the signature of a body before deciding to build a query from it.
    """
    ordered_terms = list(head)
    for atom in sorted(body, key=Atom.sort_key):
        ordered_terms.extend(atom.args)
    mapping: Substitution = {}
    for term in ordered_terms:
        if is_variable(term) and term not in mapping:
            mapping[term] = Variable(f"x{len(mapping)}")
    renamed_head = tuple(mapping[v] for v in head)
    renamed_body = tuple(sorted(apply_substitution(body, mapping), key=Atom.sort_key))
    return renamed_head, renamed_body


def freeze(query: ConjunctiveQuery, prefix: str = "_c_") -> Tuple[Tuple[Atom, ...], Tuple[Constant, ...]]:
    """Freeze a CQ into its canonical database.

    Every variable is replaced by a fresh constant; the function returns
    the resulting set of facts together with the frozen head tuple.  The
    canonical database is the standard tool for CQ containment: ``q1`` is
    contained in ``q2`` iff the frozen head of ``q1`` is an answer to
    ``q2`` over the canonical database of ``q1``.
    """
    mapping: Substitution = {}
    for variable in sorted(query.variables()):
        mapping[variable] = Constant(f"{prefix}{variable.name}")
    frozen_body = apply_substitution(query.body, mapping)
    frozen_head = tuple(mapping[v] for v in query.head)
    return frozen_body, frozen_head
