"""Recursive-descent parsers for the four calculi, chosen by calculus name.

One grammar family: application by juxtaposition (left-associative), arrows
right-associative, binders `fun`/`Pi`/`Sigma`/`W`/`forall`/`exists`, explicit
motive/annotation arguments in square brackets, numerals as Nat sugar. Each
calculus's grammar lives in its own module (`fol_parser`, `stlc_parser`,
`hol_parser`, `dtt_parser`), imported here only when that calculus is
parsed, so parsing one calculus loads no other.
"""

from __future__ import annotations

from ..errors import unknown_calculus
from .lexer import Cursor, tokenize


def parse_expr(calculus: str, text: str, filename: str = "<input>", **kwargs):
    """Parse one expression of the given calculus from the whole text."""
    cur = Cursor(tokenize(text, filename), filename)
    out = parse_expr_at(calculus, cur, **kwargs)
    if not cur.done():
        cur.fail("trailing input after the expression")
    return out


def parse_expr_at(calculus: str, cur: Cursor, **kwargs):
    if calculus in ("fol", "fol-term"):
        from .fol_parser import FolEnv, parse_fol_formula, parse_fol_term

        env = FolEnv(kwargs.get("signature"), kwargs.get("var_sorts"))
        return (parse_fol_formula if calculus == "fol" else parse_fol_term)(cur, env)
    if calculus == "stlc":
        from .stlc_parser import parse_stlc_term

        return parse_stlc_term(cur, kwargs.get("consts"))
    if calculus == "stlc-type":
        from .stlc_parser import parse_stlc_type

        return parse_stlc_type(cur)
    if calculus in ("hol", "hol-type"):
        from ..hol.kernel import initial_state
        from .hol_parser import parse_hol_term, parse_hol_type

        state = kwargs.get("state") or initial_state()
        if calculus == "hol":
            return parse_hol_term(cur, state, kwargs.get("macros"))
        return parse_hol_type(cur, state)
    if calculus == "dtt":
        from .dtt_parser import parse_dtt_expr

        return parse_dtt_expr(cur, kwargs.get("defs"))
    raise unknown_calculus(calculus)
