"""Source spans and the dataclass field helpers shared by all four ASTs.

Spans and binder-name hints ride along on AST nodes but are excluded from
equality and hashing, so structural ``==`` on the nameless representations is
exactly alpha-equivalence.
"""

from __future__ import annotations

from dataclasses import field
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


def span_field():
    return field(default=None, kw_only=True, compare=False, repr=False)


def hint_field():
    return field(default=None, kw_only=True, compare=False, repr=False)
