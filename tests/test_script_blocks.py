"""Block collection in `surface.script` against the token-copying collectors
it replaced.

`ref_collect_braces` and `ref_collect_rule_expr` are those collectors, kept
verbatim apart from their names: they walk the cursor one `peek`/`next` at a
time and copy each token into a list. The collectors in `src` scan to the
block's end and return one slice plus the eof token. `parse_script` with
either pair must give equal commands (token spans included, since a `Token`
compares its span) or the same `ParseError` message and span, on every corpus
script and on seeded mutants that add, drop or move brackets and command
keywords.
"""

import pathlib
import random

import pytest

from foundry.errors import ParseError
from foundry.span import Span
from foundry.surface import script as sc
from foundry.surface.lexer import Cursor, Token, tokenize

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
SCRIPTS = sorted(p for p in CORPUS.iterdir() if p.suffix in (".fol", ".stlc", ".hol", ".dtt"))

MUTANTS = 3_000
INSERTS = ["{", "}", "(", ")", "[", "]", " axiom ", " axiom-", "-", " thm ", " theorem ", "\n"]


def ref_collect_braces(cur: Cursor) -> tuple:
    """Consume a brace-delimited block, returning the inner tokens plus a
    trailing eof token (so they can be re-parsed with a fresh cursor)."""
    open_tok = cur.expect("{")
    depth = 1
    out: list[Token] = []
    while True:
        t = cur.peek()
        if t.kind == "eof":
            raise ParseError("unbalanced brace block", span=open_tok.span)
        if t.kind == "symbol" and t.value == "{":
            depth += 1
        elif t.kind == "symbol" and t.value == "}":
            depth -= 1
            if depth == 0:
                cur.next()
                break
        out.append(cur.next())
    out.append(Token("eof", "", open_tok.span))
    return tuple(out)


def ref_collect_rule_expr(cur: Cursor) -> tuple:
    """Consume a HOL rule expression: everything up to the next top-level
    command keyword (balanced in parens/braces/brackets).

    `assume` and `axiom` are also rule names, so they terminate the
    expression only when they look like command starts (axiom-enable).
    """
    out: list[Token] = []
    depth = 0
    start = cur.peek().span
    while True:
        t = cur.peek()
        if t.kind == "eof":
            break
        if depth == 0 and t.kind == "ident" and t.value in sc._COMMAND_KEYWORDS:
            if t.value != "axiom":
                break
            nxt = cur.tokens[cur.pos + 1]
            if nxt.kind == "symbol" and nxt.value == "-":
                break
        if t.kind == "symbol" and t.value in ("(", "{", "["):
            depth += 1
        elif t.kind == "symbol" and t.value in (")", "}", "]"):
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket in rule expression", span=t.span)
        out.append(cur.next())
    if not out:
        raise ParseError("empty proof expression", span=start)
    out.append(Token("eof", "", start))
    return tuple(out)


def outcome(text):
    try:
        return sc.parse_script(text, "m")
    except ParseError as e:
        return ("error", e.message, e.span)


def both(monkeypatch, text):
    got = outcome(text)
    with monkeypatch.context() as m:
        m.setattr(sc, "_collect_braces", ref_collect_braces)
        m.setattr(sc, "_collect_rule_expr", ref_collect_rule_expr)
        want = outcome(text)
    return got, want


def mutant(rng: random.Random, texts: list[str]) -> str:
    """A window of corpus text that starts at a line, with 1–3 brackets or
    command keywords inserted or characters deleted."""
    text = rng.choice(texts)
    starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    start = rng.choice(starts)
    chars = list(text[start : start + rng.randint(1, 300)])
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(chars) + 1)
        if rng.random() < 0.6 or not chars:
            chars.insert(k, rng.choice(INSERTS))
        else:
            del chars[min(k, len(chars) - 1)]
    return "".join(chars)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_corpus_scripts_collect_blocks_as_before(monkeypatch, path):
    got, want = both(monkeypatch, path.read_text())
    assert got == want
    assert isinstance(got, list) and got


def test_seeded_mutants_collect_blocks_as_before(monkeypatch):
    rng = random.Random(17)
    texts = [p.read_text() for p in SCRIPTS]
    errors = 0
    for _ in range(MUTANTS):
        text = mutant(rng, texts)
        got, want = both(monkeypatch, text)
        assert got == want, repr(text)
        errors += isinstance(got, tuple)
    # both sides of the comparison are exercised
    assert MUTANTS // 10 < errors < MUTANTS * 9 // 10


def test_a_block_ends_in_an_eof_at_its_opening_brace():
    (cmd,) = sc.parse_script("check { f {x} y }", "b")
    body = cmd.body_tokens
    assert type(body) is tuple
    assert [t.value for t in body] == ["f", "{", "x", "}", "y", ""]
    assert body[-1] == Token("eof", "", Span("b", 1, 7, 1, 8))
    # a block inside a block: the eof sits at the inner opening brace
    cur = Cursor(body, "b")
    cur.next()
    inner = sc._collect_braces(cur)
    assert inner == (body[2], Token("eof", "", body[1].span))
    assert cur.peek() is body[4]


def test_a_rule_expression_ends_in_an_eof_at_its_first_token():
    (thm, check) = sc.parse_script("thm t := trans (refl {x}) h\ncheck {y}", "r")
    proof = thm.proof_tokens
    assert type(proof) is tuple
    assert [t.value for t in proof] == ["trans", "(", "refl", "{", "x", "}", ")", "h", ""]
    assert proof[-1] == Token("eof", "", Span("r", 1, 10, 1, 15))
    assert check.body_tokens[0].value == "y"


def test_an_unbalanced_block_fails_at_its_opening_brace():
    with pytest.raises(ParseError) as e:
        sc.parse_script("check {x\n{y}", "u")
    assert e.value.message == "unbalanced brace block"
    assert e.value.span == Span("u", 1, 7, 1, 8)
    with pytest.raises(ParseError) as e:
        sc.parse_script("thm t :=\ncheck {y}", "u")
    assert e.value.message == "empty proof expression"
    assert e.value.span == tokenize("thm t :=\ncheck {y}", "u")[3].span
