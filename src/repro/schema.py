"""Declarative checks, and the one read and write path, for JSON documents.

Every document the repo reads or writes declares its shape as a *spec*,
which is plain data:

* a Python type; ``float`` also accepts an int, a bool is never a number;
* a tuple: an enum, the value must equal one of its members;
* a compiled regex: a string the pattern matches in full;
* a :class:`Bound`, :class:`Record`, :class:`Items` or :class:`Maybe` node.

Invariants that relate several fields stay as code next to the spec of
the document they belong to.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError

__all__ = [
    "Bound", "Record", "Items", "Maybe", "errors", "check", "read_json",
    "write_json", "print_json",
]


@dataclass(frozen=True)
class Bound:
    """A number of type ``kind`` with ``value >= ge``, ``value > gt`` and
    ``value <= le``, each limit optional; ``why`` replaces the generic
    reason for an out-of-range value."""

    kind: type = float
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    why: str | None = None

    def errors(self, value: Any, where: str) -> list[str]:
        broken = [f"{sign} {limit!r}" for sign, limit, ok in (
            (">=", self.ge, self.ge is None or value >= self.ge),
            (">", self.gt, self.gt is None or value > self.gt),
            ("<=", self.le, self.le is None or value <= self.le),
        ) if not ok]
        if not broken:
            return []
        return [f"{where}: {self.why or 'must be ' + ', '.join(broken)}, got {value!r}"]


@dataclass(frozen=True)
class Record:
    """An object with ``required`` and ``optional`` members (name -> spec);
    with ``exact`` it may carry no other members."""

    required: dict
    optional: dict = field(default_factory=dict)
    exact: bool = False
    kind = dict

    def errors(self, value: Any, where: str) -> list[str]:
        out = []
        members = {**self.required, **self.optional}
        missing = [name for name in self.required if name not in value]
        if missing:
            out.append(f"{where}: missing fields {missing}")
        extra = [name for name in value if name not in members] if self.exact else []
        if extra:
            out.append(f"{where}: unexpected fields {sorted(map(str, extra))}")
        for name, spec in members.items():
            if name in value:
                out += errors(value[name], spec, f"{where}.{name}")
        return out


@dataclass(frozen=True)
class Items:
    """A list of ``item``, or with a ``key`` spec an object whose keys match
    ``key`` and whose values match ``item``, of at least ``min`` entries;
    ``why`` replaces the generic reason for too few entries."""

    item: Any
    key: Any = None
    min: int = 0
    why: str | None = None

    @property
    def kind(self) -> type:
        return list if self.key is None else dict

    def errors(self, value: Any, where: str) -> list[str]:
        out = []
        if len(value) < self.min:
            reason = self.why or f"needs at least {self.min} entries"
            out.append(f"{where}: {reason}, got {len(value)}")
        for name, item in enumerate(value) if self.key is None else value.items():
            path = f"{where}[{name!r}]"
            if self.key is not None:
                out += errors(name, self.key, path)
            out += errors(item, self.item, path)
        return out


@dataclass(frozen=True)
class Maybe:
    """``None``, or a value matching ``spec``."""

    spec: Any


def _is(value: Any, kind: type) -> bool:
    if kind in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def errors(value: Any, spec: Any, where: str = "$") -> list[str]:
    """Every violation of ``spec`` in ``value``, each as ``json-path: reason``."""
    if isinstance(spec, Maybe):
        return [] if value is None else errors(value, spec.spec, where)
    if isinstance(spec, tuple):
        return [] if value in spec else [f"{where}: {value!r} is not one of {spec}"]
    if isinstance(spec, re.Pattern):
        if isinstance(value, str) and spec.fullmatch(value):
            return []
        return [f"{where}: {value!r} does not match {spec.pattern!r}"]
    kind = spec if isinstance(spec, type) else spec.kind
    if not _is(value, kind):
        return [f"{where}: expected {kind.__name__}, got {type(value).__name__}"]
    return [] if isinstance(spec, type) else spec.errors(value, where)


def check(value: Any, spec: Any, what: str) -> None:
    """Raise :class:`ConfigurationError` naming ``what`` and the first
    violation of ``spec`` in ``value``."""
    problems = errors(value, spec)
    if problems:
        raise ConfigurationError(f"{what}: {problems[0]}")


def read_json(path: str, spec: Any, what: str) -> Any:
    """Parse the JSON file at ``path`` and check it against ``spec``; an
    unreadable, non-JSON or non-conforming file raises
    :class:`ConfigurationError` with a one-line message."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read {what} {path!r}: {exc}") from None
    check(doc, spec, f"{path!r} is not a {what}")
    return doc


def _dumps(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: str, doc: Any, spec: Any = None) -> None:
    """Write ``doc`` as indented, key-sorted JSON with a trailing newline,
    after checking it against ``spec`` when one is given."""
    if spec is not None:
        check(doc, spec, f"refusing to write {path!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(doc))


def print_json(doc: Any) -> None:
    """:func:`write_json`'s twin for standard output: the same bytes."""
    sys.stdout.write(_dumps(doc))
