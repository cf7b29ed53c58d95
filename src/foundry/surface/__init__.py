"""Concrete syntax: lexer, parsers, printers, and the script language.

The package loads no calculus: `parse_expr` and `pretty` look the calculus
up in `calculi.CALCULI` and import only its grammar or printer.
"""

from .lexer import Cursor, Token, tokenize  # noqa: F401
from .parsers import parse_expr, parse_expr_at  # noqa: F401
from .printer import pretty  # noqa: F401
from .script import ScriptCommand, parse_script  # noqa: F401
