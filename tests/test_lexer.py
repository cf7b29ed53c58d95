r"""The line-at-a-time lexer against the character-loop lexer it replaced.

`reference_tokenize` is that lexer, kept verbatim apart from its name. Both
must give the same kind, value and five span fields for every token, or the
same `ParseError` message and span, on every corpus input file, on one line
of more than 20,000 tokens, and on seeded mutants: windows of corpus text, so
truncated anywhere, with characters inserted, deleted or replaced from an
alphabet that includes non-ASCII letters and digits (`ª`, `٣`), characters
that are `isalnum()` but neither `isalpha()` nor `isdecimal()` (`²`, `½`,
`Ⅻ`), tab and carriage return, and the characters other than `\n` at which
`str.splitlines()` would break a line (`\x0b`, `\x0c`, `\x1c`, `\x85`,
`\u2028`, `\u2029`), which are unexpected characters to both.
"""

import pathlib
import random

import pytest

from foundry.errors import ParseError
from foundry.span import Span
from foundry.surface.lexer import SYMBOLS, Token, tokenize

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
# every input file: scripts, problem files, the model and the formula
SCRIPTS = sorted(p for p in CORPUS.iterdir() if p.suffix != ".expected")

MUTANTS = 20_000
ALPHABET = "ax_Z09'-(){}[]:=>.,~*+?!|/\\<; \n\t\r#²٣ª½Ⅻ\x0b\x0c\x1c\x85\u2028\u2029"


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c in "_'"


def reference_tokenize(text: str, filename: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def span(l0, c0, l1, c1):
        return Span(filename, l0, c0, l1, c1)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        l0, c0 = line, col
        if _is_ident_start(c):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            value = text[i:j]
            col += j - i
            tokens.append(Token("ident", value, span(l0, c0, line, col)))
            i = j
            continue
        if c == "'" and i + 1 < n and _is_ident_start(text[i + 1]):
            j = i + 1
            while j < n and _is_ident_char(text[j]) and text[j] != "'":
                j += 1
            value = text[i + 1 : j]
            col += j - i
            tokens.append(Token("tyvar", value, span(l0, c0, line, col)))
            i = j
            continue
        if c.isdecimal():  # exactly the digits int() accepts; not '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            value = text[i:j]
            col += j - i
            tokens.append(Token("int", value, span(l0, c0, line, col)))
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                col += len(sym)
                tokens.append(Token("symbol", sym, span(l0, c0, line, col)))
                i += len(sym)
                break
        else:
            raise ParseError(
                f"unexpected character {c!r}", span=span(l0, c0, l0, c0 + 1)
            )
    tokens.append(Token("eof", "", span(line, col, line, col)))
    return tokens


def outcome(lex, text):
    """Every token as (kind, value, file, line, col, end_line, end_col), or
    the error's message and span fields."""
    try:
        return [(t.kind, t.value, *t.span) for t in lex(text, "m")]
    except ParseError as e:
        return ("error", e.message, *e.span)


def mutant(rng: random.Random, texts: list[str]) -> str:
    text = rng.choice(texts)
    start = rng.randrange(len(text))
    chars = list(text[start : start + rng.randint(1, 120)])
    for _ in range(rng.randint(0, 4)):
        op = rng.randrange(3)
        k = rng.randrange(len(chars) + 1)
        if op == 0 or not chars:
            chars.insert(k, rng.choice(ALPHABET))
        elif op == 1:
            del chars[min(k, len(chars) - 1)]
        else:
            chars[min(k, len(chars) - 1)] = rng.choice(ALPHABET)
    return "".join(chars)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_corpus_files_lex_as_before(path):
    text = path.read_text()
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


def test_seeded_mutants_lex_as_before():
    rng = random.Random(16)
    texts = [p.read_text() for p in SCRIPTS]
    errors = 0
    for _ in range(MUTANTS):
        text = mutant(rng, texts)
        got = outcome(tokenize, text)
        assert got == outcome(reference_tokenize, text), repr(text)
        errors += got[0] == "error"
    # both sides of the comparison are exercised
    assert MUTANTS // 10 < errors < MUTANTS * 9 // 10


@pytest.mark.parametrize("text, expected", [
    ("x -- c", (1, 3)),
    ("x\n  -- c", (2, 3)),
    ("-- c", (1, 1)),
    ("x -- c\n", (2, 1)),
], ids=["after-a-token", "after-an-indent", "alone", "before-a-newline"])
def test_eof_after_a_trailing_comment_sits_at_the_comment(text, expected):
    """The column does not advance over a comment, so an eof after a comment
    with no newline sits where the comment starts."""
    eof = tokenize(text)[-1]
    assert eof.kind == "eof"
    assert (eof.span.line, eof.span.col, eof.span.end_line, eof.span.end_col) == expected * 2


@pytest.mark.parametrize("text, expected", [
    ("x  \t", (1, 5)),
    ("x\r\ny\r\n", (3, 1)),
    ("x\r\ny\r", (2, 3)),
    ("x\ny", (2, 2)),
    ("x\n \t", (2, 3)),
], ids=["trailing-blanks", "crlf", "crlf-unterminated", "no-final-newline", "blank-last-line"])
def test_eof_sits_past_the_last_line(text, expected):
    """With no trailing comment, eof sits one past the last line's last
    character, counting its blanks and carriage returns."""
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)
    eof = tokenize(text)[-1]
    assert (eof.kind, eof.span.line, eof.span.col) == ("eof", *expected)


def test_one_long_line_lexes_as_before():
    # ten tokens a piece, then a comment to the end of the line
    text = "\t".join(f"(f{i} x' : 'a) -> {i} /\\ g_{i}" for i in range(2_100)) + " -- c"
    got = outcome(tokenize, text)
    assert got == outcome(reference_tokenize, text)
    assert len(got) == 21_001 and {t[3] for t in got} == {1}
    text = text.replace("g_2000", "g_2000 ²")
    got = outcome(tokenize, text)
    assert got == outcome(reference_tokenize, text)
    assert got[:2] == ("error", "unexpected character '²'")


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_tokens_and_spans_are_exact_instances(path):
    """`tokenize` builds its tuples with `tuple.__new__`; they must still be
    exactly `Token` and `Span`, with their fields, repr and `Span.__str__`."""
    tokens = tokenize(path.read_text(), path.name)
    assert all(type(t) is Token and type(t.span) is Span for t in tokens)
    t = tokens[0]
    assert t == Token(t.kind, t.value, Span(*t.span))
    assert repr(t) == f"Token(kind={t.kind!r}, value={t.value!r}, span={t.span!r})"
    assert str(t.span) == f"{path.name}:{t.span.line}:{t.span.col}"
