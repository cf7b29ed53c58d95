"""Pretty-printers matched to the parsers: parse(pretty(x)) is alpha-equal x."""

from __future__ import annotations

from .. import calculi


def pretty(calculus: str, ast) -> str:
    """The surface text of a node of the given calculus; only that calculus's
    printer is imported."""
    return calculi.load(calculus, "printer")(ast)
