"""Pretty-printers matched to the parsers: parse(pretty(x)) is alpha-equal x."""

from __future__ import annotations

from ..errors import unknown_calculus


def pretty(calculus: str, ast) -> str:
    """The surface text of a node of the given calculus; only that calculus's
    printer is imported."""
    if calculus == "fol":
        from ..fol.syntax import pretty_formula

        return pretty_formula(ast)
    if calculus == "fol-term":
        from ..fol.syntax import pretty_term

        return pretty_term(ast)
    if calculus == "stlc":
        from ..stlc.printer import pretty_term

        return pretty_term(ast)
    if calculus == "stlc-type":
        from ..stlc.typing import pretty_type

        return pretty_type(ast)
    if calculus == "hol":
        from ..hol.printer import pretty_term

        return pretty_term(ast, types=True)
    if calculus == "hol-type":
        from ..hol.kernel import pretty_type

        return pretty_type(ast)
    if calculus == "dtt":
        from ..dtt.printer import pretty as pretty_dtt

        return pretty_dtt(ast)
    raise unknown_calculus(calculus)
