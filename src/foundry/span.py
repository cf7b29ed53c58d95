"""Source spans, and `node`, which builds every record in foundry.

Spans and binder-name hints ride along on AST nodes but are excluded from
equality and hashing, so structural ``==`` on the nameless representations is
exactly alpha-equivalence.

Every immutable record, from the AST nodes to the signatures, models, kernel
states and run options, is a class of annotated fields built by `node`, and
`replace` copies one with some fields changed. A mapping field defaults to
the shared read-only `EMPTY`; a record's private cache is set up by its
`__post_init__`. `dataclasses.dataclass` generates six methods per class with
`exec` and loads `inspect`: on a 2-core x86 host with CPython 3.11 that took
about 1 ms a class, most of a FOL `foundry check` after interpreter start.
`node` compiles one source per class holding `__init__`, `__eq__` and
`__hash__`, and shares the `__repr__`, `__setattr__` and `__delattr__` below,
for about 0.2 ms a class. Methods written once over a tuple of field names
would build faster still, but made a corpus pass about 20% slower.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple


class Span(NamedTuple):
    """A source range: file, start line and column, end line and column."""

    file: str
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


# The default of a mapping field: one empty mapping that no record can change.
EMPTY = MappingProxyType({})

# The default that marks a keyword-only field: None unless given, and left
# out of `==`, `hash` and `repr`.
_AUX = object()


def span_field():
    return _AUX


def hint_field():
    return _AUX


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def node(cls=None, /, *, slots: tuple[str, ...] | None = None):
    """Make a class body of annotated fields a frozen record.

    A field whose default is `span_field()` or `hint_field()` is keyword-only,
    defaults to None and is not compared; every other field is positional
    (with its default, if it has one), compared, hashed, shown by `repr` and
    listed in `__match_args__`. `_fields` names every field in order. With
    `slots`, the class gets a slot per field plus the names given, and no
    instance dict. A `__post_init__` that the class defines runs last in
    `__init__`.
    """
    if cls is None:
        return lambda c: _build(c, slots)
    return _build(cls, slots)


def _build(cls, slots):
    body = vars(cls)
    names = tuple(body.get("__annotations__", ()))
    compared = tuple(n for n in names if body.get(n) is not _AUX)
    aux = tuple(n for n in names if n not in compared)
    defaults = tuple(body[n] for n in compared if n in body)
    first_default = len(compared) - len(defaults)
    params = [n if i < first_default else f"{n}=_d[{i - first_default}]" for i, n in enumerate(compared)]
    if aux:
        params += ["*", *(f"{n}=None" for n in aux)]
    lines = [f"    _set(self, {n!r}, {n})\n" for n in names]
    if "__post_init__" in body:
        lines.append("    self.__post_init__()\n")
    own = "(" + "".join(f"self.{n}," for n in compared) + ")"
    other = "(" + "".join(f"other.{n}," for n in compared) + ")"
    source = (
        f"def __init__(self, {', '.join(params)}):\n"
        + ("".join(lines) or "    pass\n")
        + "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return {own} == {other}\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash({own})\n"
    )
    ns = {"__name__": cls.__module__, "_set": object.__setattr__, "_d": defaults}
    exec(source, ns)
    if slots is None:
        for n in aux:
            setattr(cls, n, None)
    else:
        kept = {k: v for k, v in body.items() if k not in names and k not in ("__dict__", "__weakref__")}
        qualname = cls.__qualname__
        cls = type(cls)(cls.__name__, cls.__bases__, {**kept, "__slots__": names + slots})
        cls.__qualname__ = qualname
    for name in ("__init__", "__eq__", "__hash__"):
        fn = ns[name]
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    cls.__match_args__ = compared
    cls._fields = names
    return cls


def replace(record, /, **changes):
    """A new record of record's class, with the given fields changed.

    The record is built through its constructor, so its checks run again and
    whatever its `__post_init__` sets up starts afresh.
    """
    fields = getattr(type(record), "_fields", None)
    if fields is None:
        raise TypeError("replace() should be called on a record built by node")
    return type(record)(**{name: getattr(record, name) for name in fields} | changes)
