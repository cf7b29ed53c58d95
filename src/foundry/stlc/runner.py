"""The STLC script runner: typing, definitions and traced normalization."""

from __future__ import annotations

from ..errors import ScriptError
from ..run import Options, _Runner
from ..surface import script as sc
from ..surface.stlc_parser import parse_stlc_term, parse_stlc_type
from .printer import pretty_term
from .reduce import ReductionFlags, normalize
from .syntax import Const
from .typing import infer_type, pretty_type


class StlcRunner(_Runner):
    calculus = "stlc"
    keywords = frozenset({"fn", "define", "term", "check", "eval", "theorem"})

    def __init__(self, options: Options, filename: str = "<script>"):
        super().__init__(options, filename)
        self.consts: dict = {}

    def flags(self) -> ReductionFlags:
        return ReductionFlags(beta=True, eta=self.options.eta, iota=True)

    def _term(self, tokens):
        return self.block(tokens, "term", parse_stlc_term, self.consts)

    def _type(self, tokens):
        return self.block(tokens, "type", parse_stlc_type)

    def _trace_step(self, before, after) -> None:
        self.trace(f"{pretty_term(before)} --> {pretty_term(after)}")

    def dispatch(self, cmd) -> str:
        match cmd:
            case sc.DeclareTyped(name=name, type_tokens=ty):
                self.consts[name] = Const(name, self._type(ty))
            case sc.Define(name=name, type_tokens=ty, body_tokens=body):
                t = self._term(body)
                got = infer_type({}, t)
                if ty is not None and self._type(ty) != got:
                    raise ScriptError(
                        f"definition {name} has type {pretty_type(got)}"
                    )
                self.consts[name] = t
            case sc.TermMacro(name=name, body_tokens=body):
                self.consts[name] = self._term(body)
            case sc.Check(body_tokens=body, type_tokens=ty):
                t = self._term(body)
                got = infer_type({}, t)
                if ty is not None and self._type(ty) != got:
                    raise ScriptError(f"term has type {pretty_type(got)}")
                return pretty_type(got)
            case sc.Eval(body_tokens=body):
                t = self._term(body)
                infer_type({}, t)
                step = self._trace_step if self.options.trace else None
                nf = normalize(t, self.flags(), fuel=self.options.fuel, on_step=step)
                return pretty_term(nf)
            case sc.Theorem(name=name, statement_tokens=stmt, proof_kind="term", proof_tokens=body):
                t = self._term(body)
                want = self._type(stmt)
                got = infer_type({}, t)
                if got != want:
                    raise ScriptError(
                        f"term has type {pretty_type(got)}, stated {pretty_type(want)}"
                    )
                self.report.theorems_certified += 1
                return pretty_type(got)
            case _:
                return super().dispatch(cmd)
        return ""
