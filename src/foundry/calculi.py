"""The calculi, each named once: its runner class, its grammar `(cursor,
**context) -> node` and its printer `node -> text`, each a (module under
`foundry`, name) pair imported on first use. `hol-type` has no runner."""

from __future__ import annotations

import importlib
import os
import sys
from collections import namedtuple

from .errors import FoundryError

Calculus = namedtuple("Calculus", "runner grammar printer")

CALCULI = {
    "fol": Calculus(("fol.runner", "FolRunner"), ("surface.fol_parser", "parse_fol_expr"),
                    ("fol.syntax", "pretty_formula")),
    "stlc": Calculus(("stlc.runner", "StlcRunner"), ("surface.stlc_parser", "parse_stlc_term"),
                     ("stlc.printer", "pretty_term")),
    "hol": Calculus(("hol.runner", "HolRunner"), ("surface.hol_parser", "parse_hol_term"),
                    ("hol.printer", "pretty_typed")),
    "hol-type": Calculus(None, ("surface.hol_parser", "parse_hol_type_expr"), ("hol.kernel", "pretty_type")),
    "dtt": Calculus(("dtt.runner", "DttRunner"), ("surface.dtt_parser", "parse_dtt_expr"),
                    ("dtt.printer", "pretty")),
}
SCRIPTED = tuple(name for name, row in CALCULI.items() if row.runner)  # in the table's order


def load(calculus: str, part: str):
    """A calculus's `runner`, `grammar` or `printer`, read from its module at
    each call (so a rebinding there is seen) and imported on first use."""
    ref = getattr(CALCULI.get(calculus), part, None)
    if ref is None:
        raise FoundryError(f"unknown calculus {calculus!r}", tag="usage")
    module = "foundry." + ref[0]
    return getattr(sys.modules.get(module) or importlib.import_module(module), ref[1])


def of_file(path: str) -> str | None:
    """The calculus a script's file extension names, or None."""
    calculus = os.path.splitext(path)[1][1:]
    return calculus if calculus in SCRIPTED else None
