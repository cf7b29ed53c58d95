"""Classes built by `foundry.span.node` against the dataclasses they replaced.

Every AST node class in foundry is compared with a reference: the same class
body, taken from the source, decorated with `dataclasses.dataclass(frozen=True)`
the way it was before, with `span_field`/`hint_field` kept below as they
were (and HOL's `_h` hash slot as the field it was). Both must agree on
`__match_args__`, the init fields, slots, the constructor's parameters, what
positional, keyword and keyword-only construction builds, the `TypeError`
for missing, extra or repeated arguments, `repr`, `==` and `hash` (which
ignore `span` and `hint`), and the message on assigning or deleting a field.
The instance checks also run over every node that running each corpus
script builds.

The records that check what they are built from, or that defaulted a field
to a fresh dict, are compared instead with the dataclasses they were, kept
verbatim in `dataclass_records.py`, on sample arguments: the constructor's
parameters and defaults (a shared read-only empty mapping where a fresh dict
was), the fields built, `==`, `hash`, the errors of invalid arguments and
`replace`. `RunReport`, now a plain class, must build and print the same
reports.
"""

import __future__
import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
import random
import sys

import pytest

import dataclass_records as was
import foundry
from foundry.calculi import of_file
from foundry.dtt.kernel import KernelConfig
from foundry.fol.semantics import FiniteModel, KripkeModel
from foundry.fol.syntax import BVar, Forall, FVar, Rel, Signature, Sort
from foundry.fol.theory import LogEntry, Theory
from foundry.hol.kernel import PROP, ConstDecl, KernelState, fn
from foundry.run import CommandResult, Options, RunReport, run_script_text
from foundry.span import EMPTY, FrozenInstanceError, Span, replace
from foundry.surface.fol_parser import FolEnv

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


# The records compared with their verbatim dataclasses, below.
CONVERTED = {
    cls: getattr(was, cls.__name__)
    for cls in (Options, CommandResult, FolEnv, Signature, Theory, FiniteModel, KripkeModel, KernelState, KernelConfig)
}
ALL = node_classes()
NODES = {name: cls for name, cls in ALL.items() if cls not in CONVERTED}
REFERENCE = {cls: reference(cls) for cls in NODES.values()}


def test_every_frozen_record_is_compared():
    assert len(NODES) > 120
    assert set(ALL.values()) == set(NODES.values()) | set(CONVERTED)
    assert all(not dataclasses.is_dataclass(cls) for cls in ALL.values())
    assert issubclass(FrozenInstanceError, AttributeError)


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
            error = FrozenInstanceError if obj is x else dataclasses.FrozenInstanceError
            with pytest.raises(error) as assigned:
                setattr(obj, field, 1)
            with pytest.raises(error) as deleted:
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
    report = run_script_text(of_file(name), (CORPUS / name).read_text(), Options(**MANIFEST[name]), name)
    monkeypatch.undo()
    assert report.results
    assert built
    for cls, xs in built.items():
        xs = xs[:400]
        for x, y in zip(xs, xs[1:] + xs[:1]):
            agree(x, y)


# ---------------------------------------------------------------------------
# Records that were dataclasses with checks or default factories


OBJ, NAT = Sort("obj"), Sort("nat")
SIG = Signature(frozenset({OBJ}), relations={"P": (OBJ,)})
SENTENCE = Forall(OBJ, Rel("P", (BVar(0),)))
OPEN = Rel("P", (FVar("x", OBJ),))
WORLD0 = FiniteModel({OBJ: (0,)})
WORLD1 = FiniteModel({OBJ: (0, 1)}, relations={"P": frozenset({(0,)})})
EQ = ConstDecl("=", fn(PROP, fn(PROP, PROP)))

# Per record: arguments that build one, arguments that fail, and changes for
# `replace` (a failing change included).
CASES = {
    Options: (
        [{}, {"classical": True}, {"axioms": ("funext",), "fuel": 7}, {"trace": True, "eta": True}],
        [{"bogus": 1}, {"fuel": 1, "fuel2": 2}],
        [{"fuel": 3}, {"classical": True}, {"nope": 1}],
    ),
    CommandResult: (
        [
            {"index": 0, "command": "Def", "status": "ok"},
            {"index": 0, "command": "Def", "status": "ok", "output": "x"},
            {"index": 1, "command": "Thm", "status": "error", "name": "t", "tag": "type-error",
             "message": "bad", "line": 2, "col": 3},
        ],
        [{}, {"index": 0, "command": "Def"}],
        [{"status": "error", "tag": "t"}, {"index": 4}],
    ),
    FolEnv: (
        [{}, {"signature": SIG}, {"signature": SIG, "var_sorts": {"x": OBJ}}],
        [{"sig": SIG}],
        [{"var_sorts": {"y": OBJ}}, {"signature": None}],
    ),
    Signature: (
        [
            {"sorts": frozenset({OBJ})},
            {"sorts": frozenset({OBJ}), "functions": {"f": ((OBJ,), OBJ), "c": ((), OBJ)}},
            {"sorts": frozenset({OBJ, NAT}), "relations": {"R": (OBJ, NAT)}},
        ],
        [
            {},
            {"sorts": frozenset({OBJ}), "functions": {"f": ((NAT,), OBJ)}},
            {"sorts": frozenset({OBJ}), "relations": {"R": (NAT,)}},
            {"sorts": frozenset({OBJ}), "functions": {"f": ((), OBJ)}, "relations": {"f": ()}},
        ],
        [{"sorts": frozenset({OBJ, NAT})}, {"relations": {"R": (NAT,)}}],
    ),
    Theory: (
        [
            {"name": "t", "signature": SIG},
            {"name": "t", "signature": SIG, "axioms": {"ax": SENTENCE}},
            {"name": "u", "signature": SIG, "mode": "intuitionistic", "definition_log": (LogEntry("k", "n"),)},
        ],
        [
            {"name": "t", "signature": SIG, "mode": "modal"},
            {"name": "t", "signature": SIG, "axioms": {"open": OPEN}},
            {"name": "t", "signature": SIG, "axioms": {"bad": Rel("Q")}},
        ],
        [{"mode": "intuitionistic"}, {"mode": "modal"}, {"axioms": {"open": OPEN}}],
    ),
    FiniteModel: (
        [
            {"universes": {OBJ: (0, 1)}},
            {"universes": {OBJ: (0, 1)}, "functions": {"f": {(0,): 1, (1,): 0}}},
            {"universes": {OBJ: (0, 1)}, "relations": {"P": frozenset({(0,)})}},
        ],
        [{"universes": {OBJ: ()}}, {"universes": {OBJ: (0, 0)}}],
        [{"universes": {OBJ: (2,)}}, {"universes": {NAT: ()}}],
    ),
    KripkeModel: (
        [
            {"worlds": ("a",), "order": frozenset(), "models": {"a": WORLD0}},
            {"worlds": ("a", "b"), "order": frozenset({("a", "b")}), "models": {"a": WORLD0, "b": WORLD1}},
        ],
        [
            {"worlds": ("a",), "order": frozenset({("a", "c")}), "models": {"a": WORLD0}},
            {"worlds": ("a", "b"), "order": frozenset({("b", "a")}), "models": {"a": WORLD0, "b": WORLD1}},
        ],
        [{"worlds": ("b",), "models": {"b": WORLD1}}, {"order": frozenset({("a", "z")})}],
    ),
    KernelState: (
        [
            {"constants": {}, "type_ops": {"Prop": 0}},
            {"constants": {"=": EQ}, "type_ops": {"Prop": 0, "fun": 2}},
            {"constants": {"=": EQ}, "type_ops": {"Prop": 0, "fun": 2}, "enabled_axioms": frozenset({"CHOICE"}),
             "definition_log": (("definition", "c", ""),)},
        ],
        [{"constants": {}}, {"constants": 5, "type_ops": {}}],
        [{"enabled_axioms": frozenset({"INFINITY"})}, {"type_ops": 5}],
    ),
    KernelConfig: (
        [{}, {"eta_for_pi": True}, {"impredicative_prop": True, "axioms": frozenset({"funext", "K"})}],
        [{"axioms": frozenset({"bogus"})}, {"eta": True}],
        [{"cumulativity": True}, {"axioms": frozenset({"nope"})}],
    ),
}


def fields_of(x):
    return tuple(getattr(x, f) for f in type(x).__match_args__)


def built(make):
    """What a call gives: ("ok", its fields) or the exception's class and message."""
    try:
        x = make()
    except Exception as e:  # the exception itself is compared
        return ("raised", type(e), str(e))
    return ("ok", fields_of(x))


def hashed(x):
    try:
        return ("ok", hash(x))
    except TypeError:
        return ("raised", TypeError)


def test_every_converted_record_has_cases():
    assert set(CASES) == set(CONVERTED)


@pytest.mark.parametrize("cls", list(CONVERTED), ids=lambda c: c.__name__)
def test_converted_record_has_its_dataclass_parameters(cls):
    ref = CONVERTED[cls]
    init = [f for f in dataclasses.fields(ref) if f.init]
    assert cls.__match_args__ == ref.__match_args__ == tuple(f.name for f in init)
    assert cls._fields == cls.__match_args__
    new, old = inspect.signature(cls).parameters.values(), inspect.signature(ref).parameters.values()
    assert [(p.name, p.kind) for p in new] == [(p.name, p.kind) for p in old]
    for f, p, q in zip(init, new, old):
        if f.default_factory is not dataclasses.MISSING:
            assert p.default is EMPTY and f.default_factory() == EMPTY
        else:
            assert p.default == q.default


@pytest.mark.parametrize("cls", list(CONVERTED), ids=lambda c: c.__name__)
def test_converted_record_builds_compares_and_hashes_as_before(cls):
    ref = CONVERTED[cls]
    valid, invalid, _ = CASES[cls]
    xs = [cls(**kw) for kw in valid]
    rs = [ref(**kw) for kw in valid]
    for kw, x, r in zip(valid, xs, rs):
        assert fields_of(x) == fields_of(r)
        assert x == cls(**kw) and not x != cls(**kw)
        if ref.__hash__ is None:  # a mutable dataclass; the record hashes its fields
            assert hashed(r) == ("raised", TypeError)
            assert hashed(x) == hashed(fields_of(x))
        else:
            assert hashed(x) == hashed(r)
    for i, (x, r) in enumerate(zip(xs, rs)):
        for y, s in zip(xs[i:], rs[i:]):
            assert (x == y, x != y) == (r == s, r != s)
    for kw in invalid:
        assert built(lambda: cls(**kw)) == built(lambda: ref(**kw))


@pytest.mark.parametrize("cls", list(CONVERTED), ids=lambda c: c.__name__)
def test_converted_record_replace_matches_dataclasses_replace(cls):
    ref = CONVERTED[cls]
    valid, _, changes = CASES[cls]
    for kw in valid:
        x, r = cls(**kw), ref(**kw)
        for change in [{}, *changes]:
            assert built(lambda: replace(x, **change)) == built(lambda: dataclasses.replace(r, **change))


@pytest.mark.parametrize("cls", list(CONVERTED), ids=lambda c: c.__name__)
def test_converted_record_is_frozen(cls):
    x = cls(**CASES[cls][0][-1])
    for field in (*cls._fields, "not_a_field"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field {field!r}"):
            setattr(x, field, 1)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field {field!r}"):
            delattr(x, field)


def test_kernel_state_memos_are_private_and_start_empty():
    for kw in CASES[KernelState][0]:
        x, r = KernelState(**kw), was.KernelState(**kw)
        assert (x.checked, x.lemmas) == (r.checked, r.lemmas) == ({}, {})
        assert repr(x) == repr(r)
        x.checked["t"] = "ty"
        y = replace(x)
        assert y == x and y.checked == {} and y.lemmas == {} and y.lemmas is not x.lemmas


def test_kripke_model_closes_its_order_as_before():
    rng = random.Random(7)
    worlds = tuple("abcdef")
    pairs = [(lo, hi) for lo in worlds for hi in worlds]
    for _ in range(200):
        order = frozenset(rng.sample(pairs, rng.randrange(10)))
        kw = {"worlds": worlds, "order": order, "models": dict.fromkeys(worlds, WORLD0)}
        x, r = KripkeModel(**kw), was.KripkeModel(**kw)
        assert all(x.above(w) == r.above(w) for w in worlds)


def test_replace_takes_only_records():
    with pytest.raises(TypeError):
        replace(object())
    with pytest.raises(TypeError):
        replace(was.Options(), fuel=1)


def test_run_report_is_built_and_printed_as_before():
    params = inspect.signature(was.RunReport).parameters.values()
    assert list(inspect.signature(RunReport).parameters) == [
        p.name for p in params if p.default is inspect.Parameter.empty
    ]
    results = [CASES[CommandResult][0][1], CASES[CommandResult][0][2]]
    for kept in (0, 1, 2):
        new, old = RunReport("f.fol", "fol"), was.RunReport("f.fol", "fol")
        assert vars(new) == {f.name: getattr(old, f.name) for f in dataclasses.fields(old)}
        for kw in results[:kept]:
            new.results.append(CommandResult(**kw))
            old.results.append(was.CommandResult(**kw))
        new.theorems_certified = old.theorems_certified = kept
        new.elapsed_s = old.elapsed_s = 0.25
        new_json = json.dumps(new.as_dict(), sort_keys=True, indent=2)
        assert (new.ok, new.to_text(), new_json) == (old.ok, old.to_text(), old.to_json())
        first, first_old = new.first_error(), old.first_error()
        assert (first is None) == (first_old is None)
        assert first is None or fields_of(first) == fields_of(first_old)
