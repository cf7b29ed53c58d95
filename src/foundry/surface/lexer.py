r"""Shared lexer for all four calculi and the script command language.

`tokenize` scans the text one line at a time. It splits only at `\n`, never
with `splitlines()`, which also breaks at `\x0b`, `\x0c`, `\x1c`-`\x1e`,
`\x85`, `\u2028` and `\u2029`; inside a line those are ordinary characters,
and as none is a blank or starts a lexeme they are unexpected characters.

One compiled pattern's `findall` runs over each line. Each match is a
lexeme's leading blanks (space, tab, carriage return) followed by exactly one
non-empty group: an identifier, a `--` comment to the end of the line, one of
`SYMBOLS`, a numeral, a HOL type variable ('a), or any other single
character that is not a blank. The comment comes before the symbols because
`-` and `->` are symbols, and every symbol comes before its own prefixes.
Every non-blank character starts some group, so the matches cover the line
but for its trailing blanks, and a match in the last group is the
`unexpected character` error, at that character's column.

- An identifier starts with a character that is `isalpha()` or `_`, and
  continues with characters that are `isalnum()`, `_` or a prime `'`.
- A type variable is `'` followed by an identifier without primes.
- A numeral is a run of `isdecimal()` characters, exactly the digits `int()`
  accepts (so `٣` is one, `²` is not).

On str patterns `\w` is exactly `isalnum()` or `_`, and `\d` is exactly
`isdecimal()`. So `[^\W\d]`, the first character of an identifier or type
variable, also admits characters such as `²` that are `isalnum()` but not
`isalpha()`, and `tokenize` rejects those. Every such character is outside
ASCII, so the check runs only on text that is not `isascii()`.

Columns count characters from 1, each from the running lengths of the line's
blanks and lexemes. The column does not advance over a comment: the `eof`
token after a trailing comment with no newline sits at the comment's first
column; otherwise it sits one past the last line's last character, trailing
blanks included.

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

# Groups: blanks, then one of identifier, comment, symbol, numeral, type
# variable (without its `'`), unexpected character.
_LINE_LEXEMES = re.compile(
    r"([ \t\r]*)(?:([^\W\d][\w']*)|(--.*)|("
    + "|".join(map(re.escape, SYMBOLS))
    + r")|(\d+)|'([^\W\d]\w*)|([^ \t\r]))"
).findall

# The largest numeral that STLC and DTT read. A numeral n is n nested `succ`
# nodes, built before any check, and none that deep passes one.
MAX_NUMERAL = 50_000


class Token(NamedTuple):
    """One lexeme: its kind, its text and its span."""

    kind: str  # ident | tyvar | int | symbol | eof
    value: str
    span: Span


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
    unicode = not text.isascii()
    line = 0
    for chars in text.split("\n"):
        line += 1
        end = 1
        eof = len(chars) + 1
        for blanks, ident, comment, symbol, numeral, tyvar, other in _LINE_LEXEMES(chars):
            col = end + len(blanks)
            if ident:
                if unicode and not (ident[0].isalpha() or ident[0] == "_"):
                    other = ident[0]
                else:
                    end = col + len(ident)
                    append(new(Token, ("ident", ident, new(Span, (filename, line, col, line, end)))))
                    continue
            elif symbol:
                end = col + len(symbol)
                append(new(Token, ("symbol", symbol, new(Span, (filename, line, col, line, end)))))
                continue
            elif comment:
                eof = col
                continue
            elif numeral:
                end = col + len(numeral)
                append(new(Token, ("int", numeral, new(Span, (filename, line, col, line, end)))))
                continue
            elif tyvar:
                if unicode and not (tyvar[0].isalpha() or tyvar[0] == "_"):
                    other = "'"
                else:
                    end = col + 1 + len(tyvar)
                    append(new(Token, ("tyvar", tyvar, new(Span, (filename, line, col, line, end)))))
                    continue
            raise ParseError(
                f"unexpected character {other!r}", span=Span(filename, line, col, line, col + 1)
            )
    append(Token("eof", "", Span(filename, line, eof, line, eof)))
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
