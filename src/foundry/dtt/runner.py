"""The DTT script runner: definitions, checks and evaluation under one kernel
configuration."""

from __future__ import annotations

from .. import dtt
from ..run import Options, _Runner
from ..span import replace
from ..surface import script as sc
from ..surface.dtt_parser import parse_dtt_expr
from .printer import pretty as pretty_dtt


class DttRunner(_Runner):
    calculus = "dtt"
    keywords = frozenset({"axiom-enable", "enable", "define", "term", "check", "eval", "theorem"})

    def __init__(self, options: Options, filename: str = "<script>"):
        super().__init__(options, filename)
        self.cfg = dtt.KernelConfig(
            eta_for_pi=options.eta,
            cumulativity=options.cumulative,
            impredicative_prop=options.impredicative_prop,
            proof_irrelevance=options.proof_irrelevance,
            axioms=frozenset(options.axioms),
        )
        self.ctx = dtt.DttContext()
        self.defs: dict[str, dtt.Expr] = {}

    def _expr(self, tokens):
        return self.block(tokens, "expression", parse_dtt_expr, self.defs)

    def dispatch(self, cmd) -> str:
        match cmd:
            case sc.AxiomEnable(name=name):
                self.cfg = replace(self.cfg, axioms=self.cfg.axioms | {name})
            case sc.Define(name=name, type_tokens=ty, body_tokens=body):
                e = self._expr(body)
                if ty is not None:
                    want = self._expr(ty)
                    dtt.check(self.cfg, self.ctx, e, want)
                else:
                    dtt.infer(self.cfg, self.ctx, e)
                self.defs[name] = e
            case sc.TermMacro(name=name, body_tokens=body):
                self.defs[name] = self._expr(body)
            case sc.Check(body_tokens=body, type_tokens=ty):
                e = self._expr(body)
                if ty is not None:
                    want = self._expr(ty)
                    dtt.check(self.cfg, self.ctx, e, want)
                    return pretty_dtt(want)
                return pretty_dtt(dtt.infer(self.cfg, self.ctx, e))
            case sc.Eval(body_tokens=body):
                e = self._expr(body)
                dtt.infer(self.cfg, self.ctx, e)
                if self.options.trace:
                    self.trace(f"eval {pretty_dtt(e)}")
                nf = dtt.normalize(self.cfg, self.ctx, e, fuel=self.options.fuel)
                return pretty_dtt(nf)
            case sc.Theorem(name=name, statement_tokens=stmt, proof_kind="term", proof_tokens=body):
                want = self._expr(stmt)
                e = self._expr(body)
                dtt.check(self.cfg, self.ctx, e, want)
                self.defs[name] = e
                self.report.theorems_certified += 1
                return pretty_dtt(want)
            case _:
                return super().dispatch(cmd)
        return ""
