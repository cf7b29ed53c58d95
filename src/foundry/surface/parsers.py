"""Recursive-descent parsers for the four calculi, chosen by calculus name.

One grammar family: application by juxtaposition (left-associative), arrows
right-associative, binders `fun`/`Pi`/`Sigma`/`W`/`forall`/`exists`, explicit
motive/annotation arguments in square brackets, numerals as Nat sugar. Each
calculus's grammar lives in its own module (`fol_parser`, `stlc_parser`,
`hol_parser`, `dtt_parser`); `calculi.CALCULI` names each one's entry, which
is imported only when that calculus is parsed, so parsing one calculus loads
no other.
"""

from __future__ import annotations

from .. import calculi
from .lexer import Cursor, tokenize


def parse_expr(calculus: str, text: str, filename: str = "<input>", **kwargs):
    """Parse one expression of the given calculus from the whole text."""
    cur = Cursor(tokenize(text, filename), filename)
    out = parse_expr_at(calculus, cur, **kwargs)
    if not cur.done():
        cur.fail("trailing input after the expression")
    return out


def parse_expr_at(calculus: str, cur: Cursor, **kwargs):
    """Parse one expression of the given calculus at the cursor; `kwargs` is its grammar's context."""
    return calculi.load(calculus, "grammar")(cur, **kwargs)
