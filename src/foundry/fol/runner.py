"""The FOL script runner: declarations, axioms, models and theorems checked
by the natural-deduction and Hilbert kernels."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ScriptError
from ..run import Options, _Runner
from ..surface import script as sc
from ..surface.fol_parser import FolEnv, parse_fol_formula
from ..surface.proofparse import parse_hilbert, parse_nd
from .hilbert import check_hilbert
from .proof import NdDerivation, _check, check_nd
from .syntax import FVar, Signature, Sort, alpha_equal, check_well_formed, pretty_formula
from .theory import extend_by_relation, pure_theory

if TYPE_CHECKING:
    from .semantics import FiniteModel


class FolRunner(_Runner):
    calculus = "fol"

    def __init__(self, options: Options, filename: str = "<script>"):
        super().__init__(options, filename)
        mode = "classical" if options.classical else "intuitionistic"
        # scripts declare their own sorts; start with none
        self.theory = pure_theory(Signature(sorts=frozenset()), mode)
        self.models: dict[str, FiniteModel] = {}
        self.assumptions: list = []
        self.goal = None

    def env(self) -> FolEnv:
        return FolEnv(self.theory.signature)

    def parse_formula(self, tokens):
        return self.block(tokens, "formula", parse_fol_formula, self.env())

    def dispatch(self, cmd) -> str:
        match cmd:
            case sc.DeclareSort(name=name):
                sig = self.theory.signature.with_sort(Sort(name))
                self.theory = self.theory._grown(signature=sig)
            case sc.DeclareFn(name=name, args=args, result=result):
                sig = self.theory.signature.with_function(name, tuple(map(Sort, args)), Sort(result))
                self.theory = self.theory._grown(signature=sig)
            case sc.DeclareRel(name=name, args=args):
                sig = self.theory.signature.with_relation(name, tuple(map(Sort, args)))
                self.theory = self.theory._grown(signature=sig)
            case sc.DefineRel(name=name, params=params, body_tokens=body):
                pvars = tuple(FVar(p, Sort(s)) for p, s in params)
                env = FolEnv(self.theory.signature, {p: Sort(s) for p, s in params})
                a = self.block(body, "formula", parse_fol_formula, env)
                self.theory = extend_by_relation(self.theory, name, a, pvars)
            case sc.AxiomDecl(name=name, body_tokens=body):
                a = self.parse_formula(body)
                self.theory = self.theory.with_axiom(name, a)
            case sc.Assume(body_tokens=body):
                a = self.parse_formula(body)
                self.assumptions.append(a)
                self.theory = self.theory.with_axiom(
                    f"assumption_{len(self.assumptions)}", a
                )
            case sc.Prove(body_tokens=body):
                self.goal = self.parse_formula(body)
                check_well_formed(self.theory.signature, self.goal)
            case sc.Check(body_tokens=body, type_tokens=None):
                a = self.parse_formula(body)
                check_well_formed(self.theory.signature, a)
            case sc.ModelDef():
                self.models[cmd.name] = build_model(self.theory.signature, cmd)
            case sc.Theorem(name=name, statement_tokens=stmt, proof_kind=pk, proof_tokens=proof):
                statement = self.parse_formula(stmt)
                if pk == "nd":
                    d = self.block(proof, "proof", parse_nd, self.env())
                    cert = check_nd(self.theory, d)
                    if self.options.trace:
                        _trace_nd(self, d)
                elif pk == "hilbert":
                    p = self.block(proof, "proof", parse_hilbert, self.env())
                    cert = check_hilbert(self.theory, p)
                else:
                    raise ScriptError("fol theorems take nd { ... } or hilbert { ... } proofs")
                if not alpha_equal(cert.conclusion, statement):
                    raise ScriptError(
                        f"proof concludes {pretty_formula(cert.conclusion)}, "
                        f"statement says {pretty_formula(statement)}"
                    )
                for h in cert.hypotheses:
                    if not self.theory.proves_outright(h):
                        raise ScriptError(
                            f"theorem cites a hypothesis outside the theory: "
                            f"{pretty_formula(h)}"
                        )
                self.report.theorems_certified += 1
                return str(cert)
            case _:
                return super().dispatch(cmd)
        return ""


def _trace_nd(runner: FolRunner, d) -> None:
    def walk(node, depth):
        seq = _check(runner.theory, node, "trace")
        runner.trace("  " * depth + f"{seq}   [{type(node).__name__}]")
        for name in node._fields:
            v = getattr(node, name)
            if isinstance(v, NdDerivation):
                walk(v, depth + 1)

    walk(d, 0)


def build_model(sig: Signature, cmd: sc.ModelDef) -> FiniteModel:
    from .semantics import FiniteModel

    universes = {Sort(s): tuple(elems) for s, elems in cmd.universes}
    functions = {
        name: {args: result for args, result in entries}
        for name, entries in cmd.functions
    }
    relations = {name: frozenset(tuples) for name, tuples in cmd.relations}
    model = FiniteModel(universes=universes, functions=functions, relations=relations)
    model.validate(sig)
    return model
