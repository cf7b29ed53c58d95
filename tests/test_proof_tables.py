"""The FOL proof parsers read one table each, against the branch-per-rule
reference in `proofparse_reference.py`.

`parse_nd` reads the deduction rules from `_ND`, `parse_hilbert` reads the
lines `hyp`, `mp`, `all` and `ex` from `_LINES` and each `ax` line's fillers
from `hilbert.FILLERS`. Both parsers, old and new, run on hand-written proofs
that use every deduction rule, every schema 1-14 and every line kind, and on
seeded mutants of those texts that mostly fail to parse. Each must give the
same node, with the same spans and binder hints, or the same error tag,
message and span.
"""

import collections
import random
import typing

import pytest

import proofparse_reference as ref
from foundry.errors import FoundryError, ProofError
from foundry.fol import Formula, FVar, Sort, Term, hilbert, hilbert_axiom, proof, single_sorted
from foundry.surface import Cursor, proofparse, tokenize
from foundry.surface.fol_parser import FolEnv

from helpers import is_node

OBJ = Sort("obj")


def signature():
    sig = single_sorted("obj")
    for name, args in (("P", ()), ("Q", ()), ("R", (OBJ, OBJ)), ("S", (OBJ,))):
        sig = sig.with_relation(name, args)
    return sig.with_function("f", (OBJ,), OBJ).with_function("c", (), OBJ)


ENV = FolEnv(signature())

# Between them, these use every deduction rule.
ND_TEXTS = [
    "impI {P /\\ Q} (andI (andE2 (hyp {P /\\ Q})) (andE1 (hyp {P /\\ Q})))",
    "orE (hyp {P \\/ Q}) (orI2 {Q} (hyp {P})) (orI1 (hyp {Q}) {P})",
    "impE (impI {P} (hyp {P})) (botE {P} (hyp {false}))",
    "raa {P} (impE (hyp {~P}) (hyp {P}))",
    "allI (x : obj) (allE (hyp {forall y : obj, S(y)}) {f(x)})",
    "exE (hyp {exists x : obj, S(x)}) (y) (exI {exists z : obj, S(z)} {y} (hyp {S(y)}))",
    "eqTerm (hyp {x = c}) {f(x)} (x : obj)",
    "eqForm (eqRefl {c}) (hyp {R(c, c)}) {R(x, c)} (x)",
    "weaken {P ; Q -> P ; forall x : obj, R(x, x)} (hyp {Q})",
]

# Between them, these use every axiom schema and every line kind.
HILBERT_TEXTS = [
    "ax 2 {P} {P -> P} {P} ; ax 1 {P} {P -> P} ; mp 1 2 ; ax 1 {P} {P} ; mp 3 4",
    "ax 3 {P} {Q} ; ax 4 {P} {Q} ; ax 5 {P} {Q} ; ax 6 {P} {Q} ; ax 7 {P} {Q}",
    "ax 8 {P} {Q} {P /\\ Q} ; ax 9 {P \\/ Q} ; hyp {Q}",
    "ax 10 {forall x : obj, S(x)} {f(c)} ; ax 11 {exists x : obj, R(x, c)} {c}",
    "ax 12 (obj) ; ax 13 {f(z)} (z : obj) ; ax 14 {R(z, y)} (z)",
    "ax 1 {S(x)} {P} ; all 1 (y : obj) ; ex 2 (x)",
    "hyp {P} ; ax 1 {P} {Q} ; mp 2 1",
]

# Texts that stop at the reading of a rule, a line, a schema or a filler.
FAILING_TEXTS = [
    "modusPonens (hyp {P}) (hyp {P})",
    "hyp P",
    "allI x (hyp {P})",
    "allI (x : nat) (hyp {P})",
    "weaken {} (hyp {P})",
    "ax 15 {P}",
    "ax 0",
    "ax 12 obj",
    "ax 13 {f(z)} {z}",
    "axiom 1 {P} {Q}",
    "mp 1",
    "all (x : obj)",
    "ex 1 x",
    "{P}",
]


def anatomy(x):
    """Classes, fields, hints and spans of every node in x."""
    if isinstance(x, tuple):
        return tuple(anatomy(y) for y in x)
    if isinstance(x, frozenset):
        return frozenset(anatomy(y) for y in x)
    if not is_node(x):
        return x
    return (
        type(x).__name__, getattr(x, "span", None), getattr(x, "hint", None),
        tuple(anatomy(getattr(x, name)) for name in x._fields if name not in ("span", "hint")),
    )


def outcome(parse, text):
    """What one parser makes of a whole proof text: the node's anatomy, or
    the error's tag, message and span."""
    cur = Cursor(tokenize(text, "p"), "p")
    try:
        value = parse(cur, ENV)
        if not cur.done():
            cur.fail("trailing input in proof")
        return anatomy(value)
    except FoundryError as e:
        return ("error", e.tag, e.message, e.span)


PARSERS = {"nd": (proofparse.parse_nd, ref.parse_nd), "hilbert": (proofparse.parse_hilbert, ref.parse_hilbert)}


def assert_same(kind, text):
    new, old = PARSERS[kind]
    got = outcome(new, text)
    assert got == outcome(old, text), text
    return got


EXTRA_WORDS = [
    *proofparse._ND, *proofparse._LINES, "ax", "{", "}", "(", ")", ";", ":",
    "0", "1", "3", "12", "14", "15", "x", "obj", "P",
]


def mutants(text, rng, n):
    """n texts, each text with one token deleted, doubled, swapped with the
    next or preceded by a rule name, a bracket, a numeral or a name."""
    words = [t.value for t in tokenize(text) if t.kind != "eof"]
    out = []
    for _ in range(n):
        w = list(words)
        i = rng.randrange(len(w))
        k = rng.randrange(4)
        if k == 0:
            del w[i]
        elif k == 1:
            w.insert(i, w[i])
        elif k == 2 and i + 1 < len(w):
            w[i], w[i + 1] = w[i + 1], w[i]
        else:
            w.insert(i, rng.choice(EXTRA_WORDS))
        out.append(" ".join(w))
    return out


def nodes(x):
    if isinstance(x, (tuple, frozenset)):
        for y in x:
            yield from nodes(y)
    elif is_node(x):
        yield x
        for name in x._fields:
            yield from nodes(getattr(x, name))


def parsed(kind, texts):
    return [PARSERS[kind][0](Cursor(tokenize(t)), ENV) for t in texts]


def test_the_texts_use_every_rule_schema_and_line_kind():
    classes = {type(n) for d in parsed("nd", ND_TEXTS) for n in nodes(d)}
    assert set(typing.get_args(proof.NdDerivation)) <= classes
    lines = [line for p in parsed("hilbert", HILBERT_TEXTS) for line in p.lines]
    assert {type(line) for line in lines} == set(typing.get_args(hilbert.Line))
    assert {line.schema for line in lines if isinstance(line, hilbert.AxLine)} == set(range(1, 15))


@pytest.mark.parametrize("kind, text", [
    *(("nd", t) for t in ND_TEXTS), *(("hilbert", t) for t in HILBERT_TEXTS),
    *(("nd", t) for t in FAILING_TEXTS), *(("hilbert", t) for t in FAILING_TEXTS),
])
def test_each_text_parses_as_the_reference(kind, text):
    got = assert_same(kind, text)
    if text in FAILING_TEXTS:
        assert got[0] == "error"


def test_mutants_parse_as_the_reference():
    rng = random.Random(20)
    results = collections.Counter()
    for kind, texts in (("nd", ND_TEXTS), ("hilbert", HILBERT_TEXTS)):
        for text in texts:
            for m in mutants(text, rng, 320):
                got = assert_same(kind, m)
                results["error" if got[0] == "error" else "node"] += 1
    assert sum(results.values()) >= 5_000
    # the comparison covers both outcomes, failure mostly
    assert results["node"] >= 150 and results["error"] >= 4_000


# Which field annotations each argument kind may fill.
ANNOTATIONS = {
    "formula": {"Formula", "Exists"}, "formulas": {"frozenset"}, "term": {"Term"},
    "var": {"FVar"}, "nd": {"'NdDerivation'"},
}


def test_every_deduction_rule_has_one_name_and_reads_its_fields():
    classes = collections.Counter(cls for cls, _ in proofparse._ND.values())
    assert classes == collections.Counter(typing.get_args(proof.NdDerivation))
    for name, (cls, kinds) in proofparse._ND.items():
        assert len(kinds) == len(cls._fields), name
        for kind, field in zip(kinds, cls._fields):
            assert cls.__annotations__[field] in ANNOTATIONS[kind], (name, field)


def test_every_line_kind_reads_its_fields():
    assert {cls for cls, _ in proofparse._LINES.values()} | {hilbert.AxLine} == set(
        typing.get_args(hilbert.Line)
    )
    for name, (cls, kinds) in proofparse._LINES.items():
        assert len(kinds) == len(cls._fields), name
    used = {k for table in (proofparse._ND, proofparse._LINES) for _, kinds in table.values() for k in kinds}
    used |= {k for kinds in hilbert.FILLERS.values() for k in kinds}
    assert set(proofparse._READERS) == used


FILLER_TYPES = {"formula": Formula.__args__, "term": Term.__args__, "var": FVar, "sort": Sort}


@pytest.mark.parametrize("mode", ["intuitionistic", "classical"])
def test_every_schema_takes_exactly_its_fillers(mode):
    assert set(hilbert.FILLERS) == set(range(1, 15))
    payloads = {
        line.schema: line.payload
        for p in parsed("hilbert", HILBERT_TEXTS) for line in p.lines
        if isinstance(line, hilbert.AxLine)
    }
    for schema, kinds in hilbert.FILLERS.items():
        payload = payloads[schema]
        assert len(payload) == len(kinds)
        for kind, filler in zip(kinds, payload):
            assert isinstance(filler, FILLER_TYPES[kind]), (schema, kind)
        hilbert_axiom(mode, schema, payload)
        for wrong in (payload[:-1], payload + payload[:1]):
            with pytest.raises(ProofError, match=f"schema {schema} takes {len(kinds)} filler"):
                hilbert_axiom(mode, schema, wrong)
    with pytest.raises(ProofError, match="unknown axiom schema 15"):
        hilbert_axiom(mode, 15, ())
