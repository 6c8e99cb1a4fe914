"""Core data model for finite-domain CSPs with extensional constraints.

An instance is a triple <variables, domain, constraints>: a shared ordered
value domain plus constraints, each an ordered scope with the explicit set
of value rows it allows.  A :class:`SearchSpace` narrows each variable to a
nonempty subset of the domain (its "active" values); the full space keeps
every domain value active for every variable.

Everything here is an immutable value and every operation is a pure
function, so instances and spaces can be shared freely between threads.
Iteration always follows declaration order (variables as declared, values
in domain order), which keeps enumeration, counterexamples and emitted
files reproducible from run to run.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import cached_property

Row = tuple[str, ...]


class Constraint(namedtuple("Constraint", ("name", "scope", "rows"))):
    """An ordered scope and the set of value rows it allows.

    ``rows`` may be any iterable of row iterables and is stored as a
    frozenset of tuples.  The scope may not repeat variables and each row has
    one value per scope variable.  An empty scope is legal here, but
    instances only ever hold constraints with at least one scope variable.
    """

    __slots__ = ()

    def __new__(cls, name: str, scope, rows) -> "Constraint":
        scope = tuple(scope)
        if len(set(scope)) != len(scope):
            raise ValueError(f"constraint {name!r} repeats a scope variable")
        if not (isinstance(rows, frozenset) and set(map(type, rows)) <= {tuple}):
            rows = frozenset(map(tuple, rows))
        arity = len(scope)
        if not set(map(len, rows)) <= {arity}:
            for row in rows:
                if len(row) != arity:
                    raise ValueError(f"row {row!r} does not match arity {arity}")
        return tuple.__new__(cls, (name, scope, rows))


class CspInstance(namedtuple("CspInstance", ("variables", "domain", "constraints"))):
    """A finite-domain CSP: variables, one shared domain, constraints.

    ``_make`` builds one from three tuples its caller has checked as
    ``__new__`` would (the parser checks each line, to name the line), so no
    row value is checked twice.  The class keeps a ``__dict__`` for its
    cached properties.
    """

    def __new__(cls, variables, domain, constraints=()) -> "CspInstance":
        variables, domain, constraints = tuple(variables), tuple(domain), tuple(constraints)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be unique")
        if not domain:
            raise ValueError("domain must contain at least one value")
        if len(set(domain)) != len(domain):
            raise ValueError("domain values must be unique")
        known = set(variables)
        dom = set(domain)
        for c in constraints:
            if not c.scope:
                raise ValueError(f"constraint {c.name!r} has an empty scope")
            for v in c.scope:
                if v not in known:
                    raise ValueError(
                        f"constraint {c.name!r} mentions unknown variable {v!r}"
                    )
            if not dom.issuperset(itertools.chain.from_iterable(c.rows)):
                for row in c.rows:
                    for a in row:
                        if a not in dom:
                            raise ValueError(
                                f"constraint {c.name!r} uses value {a!r} outside the domain"
                            )
        return tuple.__new__(cls, (variables, domain, constraints))

    @cached_property
    def scope_positions(self) -> tuple[tuple[int, ...], ...]:
        """Per-constraint positions of scope variables in declaration order."""
        index = self._vindex
        return tuple(tuple(index[v] for v in c.scope) for c in self.constraints)

    @cached_property
    def _vindex(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.variables)}

    def var_index(self, variable: str) -> int:
        try:
            return self._vindex[variable]
        except KeyError:
            raise ValueError(f"unknown variable {variable!r}") from None


class SearchSpace(namedtuple("SearchSpace", ("entries",))):
    """Active value sets per variable, kept in declaration order.  The class
    keeps a ``__dict__`` for the active sets by name."""

    def __new__(cls, entries) -> "SearchSpace":
        entries = tuple((name, tuple(values)) for name, values in entries)
        names = [name for name, _ in entries]
        if len(set(names)) != len(names):
            raise ValueError("search space repeats a variable")
        for name, values in entries:
            if not values:
                raise ValueError(f"active set for {name!r} is empty")
            if len(set(values)) != len(values):
                raise ValueError(f"active set for {name!r} repeats a value")
        return tuple.__new__(cls, (entries,))

    @cached_property
    def _active(self) -> dict[str, tuple[str, ...]]:
        return dict(self.entries)

    @classmethod
    def full(cls, instance: CspInstance) -> "SearchSpace":
        return cls(tuple((v, instance.domain) for v in instance.variables))

    @classmethod
    def over(
        cls, instance: CspInstance, active: Mapping[str, Iterable[str]]
    ) -> "SearchSpace":
        """Build a space for an instance from per-variable restrictions.

        Omitted variables keep the full domain; given values are reordered
        into domain order and checked against it.
        """
        unknown = [v for v in active if v not in set(instance.variables)]
        if unknown:
            raise ValueError(f"active set for unknown variable(s) {unknown}")
        entries = []
        for v in instance.variables:
            if v in active:
                chosen = set(active[v])
                outside = chosen - set(instance.domain)
                if outside:
                    raise ValueError(
                        f"active values {sorted(outside)} for {v!r} are outside the domain"
                    )
                values = tuple(a for a in instance.domain if a in chosen)
            else:
                values = instance.domain
            entries.append((v, values))
        return cls(tuple(entries))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def values(self, variable: str) -> tuple[str, ...]:
        try:
            return self._active[variable]
        except KeyError:
            raise ValueError(f"unknown variable {variable!r}") from None

    def assign(self, variable: str, value: str) -> "SearchSpace":
        """The space with this variable pinned to a single active value."""
        if value not in self.values(variable):
            raise ValueError(f"value {value!r} is not active for {variable!r}")
        return self._narrowed(variable, (value,))

    def remove(self, variable: str, value: str) -> "SearchSpace":
        """The space with one active value dropped; never empties a variable."""
        values = self.values(variable)
        if value not in values:
            raise ValueError(f"value {value!r} is not active for {variable!r}")
        if len(values) == 1:
            raise ValueError(
                f"removing {value!r} would leave {variable!r} with no active values"
            )
        return self._narrowed(variable, tuple(a for a in values if a != value))

    def _narrowed(self, variable: str, values: tuple[str, ...]) -> "SearchSpace":
        # A nonempty part of a valid active set is valid, so the child skips
        # the checks of a new space and costs two flat copies.  Each
        # variable's position is found once per lineage of spaces.
        positions = self.__dict__.get("_positions")
        if positions is None:
            positions = {name: i for i, (name, _) in enumerate(self.entries)}
        entries = list(self.entries)
        entries[positions[variable]] = (variable, values)
        active = dict(self._active)
        active[variable] = values
        child = tuple.__new__(SearchSpace, (tuple(entries),))
        vars(child).update(_active=active, _positions=positions)
        return child

    def size(self) -> int:
        total = 1
        for _, values in self.entries:
            total *= len(values)
        return total
