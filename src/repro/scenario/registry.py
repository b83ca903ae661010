"""The registry/factory core of the declarative scenario subsystem.

Everything the scenario DSL can name — workload recipes, fault kinds,
recovery designs — registers here under a string name with metadata
(description, params schema).  Lookups fail
loudly and helpfully: an unknown name raises :class:`UnknownNameError`
carrying a "did you mean ...?" suggestion plus the full list of valid
names, and duplicate registrations raise :class:`DuplicateNameError`
instead of silently shadowing.

The module is deliberately dependency-free (stdlib only, no ``repro``
imports) so any layer — including :mod:`repro.faults`, which sits
*below* the scenario package — can host a registry without import
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from difflib import get_close_matches
from typing import (Any, Dict, Generic, Iterator, Mapping, Optional,
                    Sequence, Tuple, TypeVar)

Entry = TypeVar("Entry")

#: Sentinel distinguishing "no default" from "default is None".
REQUIRED = object()


class RegistryError(Exception):
    """Base class for registry failures."""


class DuplicateNameError(RegistryError):
    """A name was registered twice in the same registry."""


class UnknownNameError(RegistryError):
    """A lookup named something the registry has never heard of.

    The message carries a closest-match suggestion and the valid names,
    so a CLI or schema error can be shown to the user verbatim.
    """

    def __init__(self, what: str, name: str,
                 known: Sequence[str]) -> None:
        self.what = what
        self.name = name
        self.known = tuple(known)
        self.suggestion = suggest(name, known)
        super().__init__(unknown_name_message(what, name, known))


def suggest(name: str, known: Sequence[str]) -> Optional[str]:
    """The closest registered name, or None when nothing is close."""
    matches = get_close_matches(name, known, n=1, cutoff=0.5)
    return matches[0] if matches else None


def unknown_name_message(what: str, name: str,
                         known: Sequence[str]) -> str:
    """``unknown <what> 'x' (did you mean 'y'?); known: a, b, c``."""
    hint = suggest(name, known)
    middle = f" (did you mean {hint!r}?)" if hint else ""
    return (f"unknown {what} {name!r}{middle}; "
            f"known: {', '.join(known)}")


@dataclass(frozen=True)
class ParamSpec:
    """Schema for one parameter of a registered entry.

    ``type`` is a concrete Python type (or tuple of types); ``default``
    is :data:`REQUIRED` when the caller must supply the value.  A
    ``choices`` tuple restricts the value to an enumerated set, and
    ``nullable`` additionally admits ``None``.
    """

    type: Any
    description: str = ""
    default: Any = REQUIRED
    choices: Optional[Tuple[Any, ...]] = None
    nullable: bool = False

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def type_name(self) -> str:
        if isinstance(self.type, tuple):
            return "/".join(t.__name__ for t in self.type)
        return self.type.__name__


def validate_params(given: Optional[Mapping[str, Any]],
                    specs: Mapping[str, ParamSpec],
                    where: str) -> Dict[str, Any]:
    """Validate ``given`` against ``specs``; returns a normalized dict
    with defaults applied.  Raises :class:`RegistryError` on an unknown
    key (with a did-you-mean suggestion), a missing required key, a
    type mismatch, or a value outside an enumerated ``choices`` set.
    ``where`` names the location for error messages (e.g.
    ``"workload.params"``).
    """
    given = dict(given or {})
    known = tuple(specs)
    for key in given:
        if key not in specs:
            raise RegistryError(
                f"{where}: " + unknown_name_message("key", key, known))
    normalized: Dict[str, Any] = {}
    for key, spec in specs.items():
        if key not in given:
            if spec.required:
                raise RegistryError(
                    f"{where}: missing required key {key!r} "
                    f"({spec.type_name()}: {spec.description})")
            normalized[key] = spec.default
            continue
        value = given[key]
        if value is None:
            if not spec.nullable:
                raise RegistryError(
                    f"{where}.{key}: must be {spec.type_name()}, "
                    f"got null")
            normalized[key] = None
            continue
        expected = spec.type
        # bool is an int subclass; never accept True for an int param.
        if isinstance(value, bool) and expected is not bool:
            raise RegistryError(
                f"{where}.{key}: must be {spec.type_name()}, "
                f"got bool {value}")
        if expected is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, expected):
            raise RegistryError(
                f"{where}.{key}: must be {spec.type_name()}, "
                f"got {type(value).__name__} {value!r}")
        if spec.choices is not None and value not in spec.choices:
            choice_names = tuple(str(choice) for choice in spec.choices)
            hint = suggest(str(value), choice_names)
            middle = f" (did you mean {hint!r}?)" if hint else ""
            raise RegistryError(
                f"{where}.{key}: {value!r} is not one of "
                f"{', '.join(choice_names)}{middle}")
        normalized[key] = value
    return normalized


@dataclass(frozen=True)
class EntryMetadata:
    """What a registered entry publishes about itself: a one-line
    description (docs and ``repro scenario list`` render it) and the
    schema of its parameters."""

    description: str
    params: Mapping[str, ParamSpec] = field(default_factory=dict)


class Registry(Generic[Entry]):
    """An ordered name -> (entry, metadata) table with loud errors.

    ``what`` names the kind of thing registered ("fault kind",
    "workload recipe", ...) and prefixes every error message.
    Registration order is preserved: ``names()`` lists entries in the
    order they registered, which stratification and docs both rely on.
    """

    def __init__(self, what: str) -> None:
        self.what = what
        self._entries: Dict[str, Tuple[Entry, EntryMetadata]] = {}

    def register(self, name: str, entry: Entry,
                 metadata: EntryMetadata) -> Entry:
        """Register ``entry`` under ``name``; returns the entry so the
        call can double as a decorator tail."""
        if name in self._entries:
            raise DuplicateNameError(
                f"{self.what} {name!r} is already registered; "
                f"remove() it first to replace it")
        self._entries[name] = (entry, metadata)
        return entry

    def remove(self, name: str) -> None:
        """Unregister ``name`` (for tests and plugin teardown)."""
        if name not in self._entries:
            raise UnknownNameError(self.what, name, self.names())
        del self._entries[name]

    def get(self, name: str) -> Entry:
        try:
            return self._entries[name][0]
        except KeyError:
            raise UnknownNameError(self.what, name, self.names()) \
                from None

    def metadata(self, name: str) -> EntryMetadata:
        try:
            return self._entries[name][1]
        except KeyError:
            raise UnknownNameError(self.what, name, self.names()) \
                from None

    def names(self) -> Tuple[str, ...]:
        return tuple(self._entries)

    def items(self) -> Iterator[Tuple[str, Entry, EntryMetadata]]:
        for name, (entry, metadata) in self._entries.items():
            yield name, entry, metadata

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def check_names(self, names: Sequence[str]) -> None:
        """Validate a batch of names; raises :class:`UnknownNameError`
        for the first unknown one."""
        for name in names:
            if name not in self._entries:
                raise UnknownNameError(self.what, name, self.names())
