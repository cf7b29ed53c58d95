"""Shared lexer for all four calculi and the script command language.

One compiled pattern is walked with `finditer`; its alternatives are tried in
order, and the order is significant: newline, blanks (space, tab, carriage
return), a `--` comment to the end of the line, an identifier, a HOL type
variable ('a), a numeral, then `SYMBOLS` in list order, where every symbol
comes before its own prefixes.

- An identifier starts with a character that is `isalpha()` or `_`, and
  continues with characters that are `isalnum()`, `_` or a prime `'`.
- A type variable is `'` followed by an identifier without primes.
- A numeral is a run of `isdecimal()` characters, exactly the digits `int()`
  accepts (so `٣` is one, `²` is not).

Columns count characters from 1. The column does not advance over a comment:
the `eof` token after a trailing comment with no newline sits at the
comment's first column.

`tokenize` builds each `Token` and `Span` with `tuple.__new__`, which is what
a NamedTuple's generated `__new__` calls after binding its arguments; calling
it directly skips that Python-level frame for every lexeme, and the results
are still exact instances of both classes.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

from ..errors import ParseError
from ..span import Span

SYMBOLS = [
    ":=", "=>", "->", "<->", "/\\", "\\/", "|-",
    "(", ")", "{", "}", "[", "]", ",", ":", ";", "=", "~", "*", "+", "?", "!", ".", "-",
]

# On str patterns `\w` is exactly `isalnum()` or `_`, and `\d` is exactly
# `isdecimal()`. `[^\W\d]` also admits characters such as `²` that are
# `isalnum()` but not `isalpha()`; `tokenize` rejects those as a first
# character. Groups: 1 newline, 2 comment, 3 identifier, 4 type variable,
# 5 numeral, 6 symbol; blanks have none.
_LEXEME = re.compile(
    r"(\n)|[ \t\r]+|(--)[^\n]*|([^\W\d][\w']*)|'([^\W\d]\w*)|(\d+)|("
    + "|".join(map(re.escape, SYMBOLS))
    + ")"
)
_NEWLINE, _COMMENT, _IDENT, _TYVAR = 1, 2, 3, 4
_KINDS = (None, None, None, "ident", "tyvar", "int", "symbol")

# The largest numeral that STLC and DTT read. A numeral n is n nested `succ`
# nodes, built before any check, and none that deep passes one.
MAX_NUMERAL = 50_000


class Token(NamedTuple):
    """One lexeme: its kind, its text and its span."""

    kind: str  # ident | tyvar | int | symbol | eof
    value: str
    span: Span


def _unexpected(text: str, i: int, filename: str, line: int, line_start: int) -> ParseError:
    col = i - line_start + 1
    return ParseError(
        f"unexpected character {text[i]!r}", span=Span(filename, line, col, line, col + 1)
    )


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
    line, line_start, pos = 1, 0, 0
    group = start = 0
    for m in _LEXEME.finditer(text):
        start = m.start()
        if start != pos:
            raise _unexpected(text, pos, filename, line, line_start)
        pos = m.end()
        group = m.lastindex
        if group is None or group == _COMMENT:
            continue
        if group == _NEWLINE:
            line += 1
            line_start = pos
            continue
        value = m[group]
        if (group == _IDENT or group == _TYVAR) and not (value[0].isalpha() or value[0] == "_"):
            raise _unexpected(text, start, filename, line, line_start)
        append(new(Token, (_KINDS[group], value, new(
            Span, (filename, line, start - line_start + 1, line, pos - line_start + 1)))))
    if pos != len(text):
        raise _unexpected(text, pos, filename, line, line_start)
    col = (start if group == _COMMENT else pos) - line_start + 1
    append(Token("eof", "", Span(filename, line, col, line, col)))
    return tokens


class Cursor:
    """Token stream with one-token lookahead and span-carrying errors."""

    def __init__(self, tokens: Sequence[Token], filename: str = "<input>"):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, value: str) -> bool:
        t = self.tokens[self.pos]
        return (t.kind == "symbol" or t.kind == "ident") and t.value == value

    def at_kind(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, value: str) -> Token:
        t = self.tokens[self.pos]
        if (t.kind == "symbol" or t.kind == "ident") and t.value == value:
            self.pos += 1
            return t
        self.fail(f"expected {value!r}", expected={value})

    def expect_kind(self, kind: str) -> Token:
        t = self.tokens[self.pos]
        if t.kind != kind:
            self.fail(f"expected {kind}", expected={kind})
        if kind != "eof":
            self.pos += 1
        return t

    def integer(self, most: int | None = None) -> int:
        """The value of the integer token next.

        With `most`, the token is a numeral, which STLC and DTT build as that
        many nested nodes, and a value above `most` is `depth-exceeded`.
        Without, digits that `int` cannot convert are a parse error.
        """
        t = self.expect_kind("int")
        try:
            n = int(t.value)
        except ValueError:  # more digits than `int` converts from a string
            if most is None:
                raise ParseError(f"integer too long: {len(t.value)} digits", span=t.span) from None
            n = most + 1
        if most is not None and n > most:
            message = f"numeral too large: at most {most} is accepted"
            raise ParseError(message, tag="depth-exceeded", span=t.span)
        return n

    def binder_groups(self, read_type) -> list[tuple[str, object, int]]:
        """The groups `(x y : T) (z : U) ...` that open a binder, as each
        name with its type and the number of names before it in its group.
        `read_type(bound)` reads one group's type, given the names the groups
        before it bind; a type that can name them is read at the depth of the
        group's first name, and the group's later names see it shifted by
        that number."""
        groups = []
        while self.at("("):
            self.next()
            names = [self.expect_kind("ident").value]
            while self.at_kind("ident"):
                names.append(self.next().value)
            self.expect(":")
            ty = read_type([g[0] for g in groups])
            self.expect(")")
            groups.extend((n, ty, k) for k, n in enumerate(names))
        return groups

    def fail(self, message: str, expected=None):
        t = self.peek()
        got = t.value or t.kind
        exp = f" (expected one of {sorted(expected)})" if expected else ""
        raise ParseError(f"{message}, got {got!r}{exp}", span=t.span)

    def done(self) -> bool:
        return self.tokens[self.pos].kind == "eof"
