"""Shared lexer for all four calculi and the script command language.

ASCII-first; comments run from `--` to end of line; identifiers may carry
prime marks; HOL type variables are quoted ('a).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParseError
from ..span import Span

SYMBOLS = [
    ":=", "=>", "->", "<->", "/\\", "\\/", "|-",
    "(", ")", "{", "}", "[", "]", ",", ":", ";", "=", "~", "*", "+", "?", "!", ".", "-",
]


@dataclass(frozen=True)
class Token:
    """One lexeme: its kind, its text and its span."""

    kind: str  # ident | tyvar | int | symbol | eof
    value: str
    span: Span


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c in "_'"


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
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


class Cursor:
    """Token stream with one-token lookahead and span-carrying errors."""

    def __init__(self, tokens: list[Token], filename: str = "<input>"):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, value: str) -> bool:
        t = self.peek()
        return (t.kind == "symbol" or t.kind == "ident") and t.value == value

    def at_kind(self, kind: str) -> bool:
        return self.peek().kind == kind

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, value: str) -> Token:
        t = self.peek()
        if (t.kind in ("symbol", "ident")) and t.value == value:
            return self.next()
        self.fail(f"expected {value!r}", expected={value})

    def expect_kind(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.fail(f"expected {kind}", expected={kind})
        return self.next()

    def fail(self, message: str, expected=None):
        t = self.peek()
        got = t.value or t.kind
        exp = f" (expected one of {sorted(expected)})" if expected else ""
        raise ParseError(f"{message}, got {got!r}{exp}", span=t.span)

    def done(self) -> bool:
        return self.peek().kind == "eof"
