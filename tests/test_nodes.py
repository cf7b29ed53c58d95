"""Classes built by `foundry.span.node` against the dataclasses they replaced.

Every such class in foundry is compared with a reference: the same class
body, taken from the source, decorated with `dataclasses.dataclass(frozen=True)`
the way it was before, with `span_field`/`hint_field` kept below as they
were (and HOL's `_h` hash slot as the field it was). Both must agree on
`__match_args__`, the init fields, slots, the constructor's parameters, what
positional, keyword and keyword-only construction builds, the `TypeError`
for missing, extra or repeated arguments, `repr`, `==` and `hash` (which
ignore `span` and `hint`), and the error on assigning or deleting a field.
The instance checks also run over every node that running each corpus
script builds.
"""

import __future__
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import sys

import pytest

import foundry
from foundry.run import Options, run_script_text
from foundry.span import Span

from test_golden import CORPUS, MANIFEST


# ---------------------------------------------------------------------------
# The replaced code


def span_field():
    return dataclasses.field(default=None, kw_only=True, compare=False, repr=False)


def hint_field():
    return dataclasses.field(default=None, kw_only=True, compare=False, repr=False)


def _hash_slot():
    return dataclasses.field(init=False, compare=False, repr=False)


def reference(cls):
    """The dataclass that cls's class body made before `node` built it."""
    module = sys.modules[cls.__module__]
    tree = ast.parse(inspect.getsource(cls))
    (body,) = tree.body
    body.decorator_list = []
    namespace = dict(vars(module), span_field=span_field, hint_field=hint_field)
    exec(compile(tree, module.__file__, "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    plain = namespace[cls.__name__]
    slotted = "__slots__" in vars(cls)
    if slotted:  # the slotted nodes are HOL's, which kept their hash in `_h`
        plain.__annotations__["_h"] = "int"
        plain._h = _hash_slot()
    return dataclasses.dataclass(frozen=True, slots=slotted)(plain)


def node_classes():
    found = {}
    for info in pkgutil.walk_packages(foundry.__path__, "foundry."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type) and value.__module__ == info.name
                and "_fields" in vars(value) and not issubclass(value, tuple)
            ):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


NODES = node_classes()
REFERENCE = {cls: reference(cls) for cls in NODES.values()}


def test_every_frozen_record_is_compared():
    assert len(NODES) > 120
    assert all(not dataclasses.is_dataclass(cls) for cls in NODES.values())


# ---------------------------------------------------------------------------
# Classes


def params(fn):
    return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]


def outcome(make):
    """What a call gives: ("ok", repr, hash) or the exception's class and message."""
    try:
        x = make()
    except Exception as e:  # the exception itself is compared
        return ("raised", type(e), str(e))
    return ("ok", repr(x), hash(x))


@pytest.mark.parametrize("name", sorted(NODES))
def test_class_matches_its_dataclass(name):
    cls = NODES[name]
    ref = REFERENCE[cls]
    assert cls.__match_args__ == ref.__match_args__
    assert cls._fields == tuple(f.name for f in dataclasses.fields(ref) if f.init)
    assert getattr(cls, "__slots__", None) == getattr(ref, "__slots__", None)
    assert params(cls) == params(ref)
    assert cls.__init__.__qualname__ == ref.__init__.__qualname__
    for field in cls._fields:
        assert hasattr(cls, field) == hasattr(ref, field)
        if "__slots__" not in vars(cls):
            assert getattr(cls, field, "absent") == getattr(ref, field, "absent")


def sample_args(cls):
    positional = [f"value {i}" for i in range(len(cls.__match_args__))]
    aux = [f for f in cls._fields if f not in cls.__match_args__]
    return positional, aux


@pytest.mark.parametrize("name", sorted(NODES))
def test_construction_and_errors_match(name):
    cls = NODES[name]
    ref = REFERENCE[cls]
    positional, aux = sample_args(cls)
    spans = {f: Span("t", i + 1, 0, 0, 0) for i, f in enumerate(aux)}
    keywords = dict(zip(cls.__match_args__, positional))
    first = cls.__match_args__[:1]
    calls = [
        lambda c: c(*positional),
        lambda c: c(**keywords),
        lambda c: c(*positional, **spans),
        lambda c: c(*positional[:1], **dict(list(keywords.items())[1:]), **spans),
        lambda c: c(),
        lambda c: c(*positional[:-1]),
        lambda c: c(*positional, "extra"),
        lambda c: c(*positional, *spans.values()),
        lambda c: c(*positional, bogus=1),
        lambda c: c(*positional, **{f: 0 for f in first}),
    ]
    for call in calls:
        assert outcome(lambda: call(cls)) == outcome(lambda: call(ref))
    x, r = cls(*positional, **spans), ref(*positional, **spans)
    for field in cls._fields:
        assert getattr(x, field) == getattr(r, field)


@pytest.mark.parametrize("name", sorted(NODES))
def test_fields_are_frozen_as_before(name):
    cls = NODES[name]
    ref = REFERENCE[cls]
    positional, _ = sample_args(cls)
    x, r = cls(*positional), ref(*positional)
    assert hasattr(x, "__dict__") == hasattr(r, "__dict__")
    # A slotted reference fails with a TypeError on a name that is not a
    # field (its `__setattr__` calls `super()` with the class the slots
    # replaced), so that name is checked on the new class only.
    for field, objs in [*((f, (x, r)) for f in cls._fields), ("not_a_field", (x,))]:
        for obj in objs:
            with pytest.raises(dataclasses.FrozenInstanceError) as assigned:
                setattr(obj, field, 1)
            with pytest.raises(dataclasses.FrozenInstanceError) as deleted:
                delattr(obj, field)
            assert (str(assigned.value), str(deleted.value)) == (
                f"cannot assign to field {field!r}", f"cannot delete field {field!r}"
            )


# ---------------------------------------------------------------------------
# Instances


def rebuilt(ref, x, **changes):
    return ref(**{f: getattr(x, f) for f in type(x)._fields} | changes)


def agree(x, y):
    """x and y, of one node class, behave as their reference twins do."""
    cls = type(x)
    ref = REFERENCE[cls]
    rx, ry = rebuilt(ref, x), rebuilt(ref, y)
    assert repr(x) == repr(rx)
    assert hash(x) == hash(rx)
    assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
    assert (hash(x) == hash(y)) == (hash(rx) == hash(ry))
    assert [getattr(x, f) for f in cls.__match_args__] == [getattr(rx, f) for f in ref.__match_args__]
    aux = [f for f in cls._fields if f not in cls.__match_args__]
    if aux:
        other = cls(**{f: getattr(x, f) for f in cls._fields} | {f: "other" for f in aux})
        assert other == x and hash(other) == hash(x) and repr(other) == repr(x)


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_corpus_nodes_match_their_dataclasses(name, monkeypatch):
    built = {}

    def recording(cls, init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.setdefault(cls, []).append(self)
        return __init__

    for cls in NODES.values():
        monkeypatch.setattr(cls, "__init__", recording(cls, cls.__init__))
    calculus, options = MANIFEST[name]
    report = run_script_text(calculus, (CORPUS / name).read_text(), Options(**options), name)
    monkeypatch.undo()
    assert report.results
    assert built
    for cls, xs in built.items():
        xs = xs[:400]
        for x, y in zip(xs, xs[1:] + xs[:1]):
            agree(x, y)
