"""Shared error hierarchy.

Every user-facing failure carries a stable ``tag`` (used by ``expect-error``
script commands and the CLI report) and an optional source span.
"""

from __future__ import annotations


class FoundryError(Exception):
    tag = "error"

    def __init__(self, message: str, *, tag: str | None = None, span=None):
        super().__init__(message)
        if tag is not None:
            self.tag = tag
        self.span = span

    @property
    def message(self) -> str:
        return self.args[0]


class SortError(FoundryError):
    """Ill-sorted first-order syntax (unknown symbol, arity, sort clash)."""

    tag = "sort-error"


class ProofError(FoundryError):
    """A proof object does not match its rule schemas."""

    tag = "proof-error"


class TheoryError(FoundryError):
    """Bad theory extension: name clash, missing certificate, mode clash."""

    tag = "theory-error"


class SemanticsError(FoundryError):
    """Model evaluation failure (unassigned variable, non-ground input)."""

    tag = "semantics-error"


class TypeCheckError(FoundryError):
    """Typing failure in the STLC, HOL, or DTT checkers."""

    tag = "type-error"


class UniverseError(TypeCheckError):
    tag = "universe-error"


class KernelError(FoundryError):
    """HOL kernel rule misuse (shape mismatch, forgery attempt, axiom gate)."""

    tag = "kernel-error"


class FuelError(FoundryError):
    """Normalization or evaluation ran out of fuel."""

    tag = "fuel-exhausted"

    @classmethod
    def after(cls, spent: int) -> FuelError:
        """A normalizer's failure, once `spent` contractions used its fuel up."""
        return cls(f"normalization fuel exhausted after {spent} contraction{'' if spent == 1 else 's'}")


class ParseError(FoundryError):
    tag = "parse-error"


class ScriptError(FoundryError):
    """Script-level failure: unknown command, bad reference, failed step."""

    tag = "script-error"
