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
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property

Row = tuple[str, ...]


@dataclass(frozen=True)
class Constraint:
    """An ordered scope and the set of value rows it allows.

    ``rows`` may be any iterable of row iterables and is stored as a
    frozenset of tuples.  The scope may not repeat variables and each row has
    one value per scope variable.  An empty scope is legal here, but
    instances only ever hold constraints with at least one scope variable.
    """

    name: str
    scope: tuple[str, ...]
    rows: frozenset[Row]

    def __post_init__(self) -> None:
        if not isinstance(self.scope, tuple):
            object.__setattr__(self, "scope", tuple(self.scope))
        if len(set(self.scope)) != len(self.scope):
            raise ValueError(f"constraint {self.name!r} repeats a scope variable")
        if not isinstance(self.rows, frozenset):
            object.__setattr__(self, "rows", frozenset(map(tuple, self.rows)))
        arity = len(self.scope)
        if not set(map(len, self.rows)) <= {arity}:
            for row in self.rows:
                if len(row) != arity:
                    raise ValueError(f"row {row!r} does not match arity {arity}")


@dataclass(frozen=True)
class CspInstance:
    """A finite-domain CSP: variables, one shared domain, constraints."""

    variables: tuple[str, ...]
    domain: tuple[str, ...]
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        for attr in ("variables", "domain", "constraints"):
            value = getattr(self, attr)
            if not isinstance(value, tuple):
                object.__setattr__(self, attr, tuple(value))
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        if not self.domain:
            raise ValueError("domain must contain at least one value")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("domain values must be unique")
        known = set(self.variables)
        dom = set(self.domain)
        for c in self.constraints:
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

    @classmethod
    def _checked(cls, variables, domain, constraints) -> "CspInstance":
        """The instance of three tuples its caller has checked as
        ``__post_init__`` would (the parser checks each line, to name the
        line), so no row value is checked twice."""
        instance = object.__new__(cls)
        vars(instance).update(variables=variables, domain=domain, constraints=constraints)
        return instance

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


@dataclass(frozen=True)
class SearchSpace:
    """Active value sets per variable, kept in declaration order."""

    entries: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        names = [name for name, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("search space repeats a variable")
        for name, values in self.entries:
            if not values:
                raise ValueError(f"active set for {name!r} is empty")
            if len(set(values)) != len(values):
                raise ValueError(f"active set for {name!r} repeats a value")
        object.__setattr__(self, "_active", dict(self.entries))

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
            return self._active[variable]  # type: ignore[attr-defined]
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
        active = dict(self._active)  # type: ignore[attr-defined]
        active[variable] = values
        child = object.__new__(SearchSpace)
        object.__setattr__(child, "entries", tuple(entries))
        object.__setattr__(child, "_active", active)
        object.__setattr__(child, "_positions", positions)
        return child

    def size(self) -> int:
        total = 1
        for _, values in self.entries:
            total *= len(values)
        return total
