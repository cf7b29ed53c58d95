"""Script execution: per-calculus runners producing deterministic reports.

The CLI and the test suite both drive scripts through these runners. A report
carries one status per command; apart from the elapsed-time field it is a
pure function of the input.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from . import dtt, fol, stlc
from .dtt.printer import pretty as pretty_dtt
from .errors import FoundryError, ScriptError
from .hol import kernel as hk
from .hol import derived as hd
from .span import Span
from .surface import script as sc
from .surface.lexer import Cursor
from .surface.parsers import (
    FolEnv, parse_dtt_expr, parse_fol_formula, parse_hol_term, parse_hol_type,
    parse_stlc_term, parse_stlc_type,
)
from .surface.printer import pretty_hol, pretty_stlc
from .surface.proofparse import parse_hilbert, parse_nd


@dataclass
class Options:
    classical: bool = False
    eta: bool = False
    cumulative: bool = False
    impredicative_prop: bool = False
    proof_irrelevance: bool = False
    axioms: tuple = ()
    fuel: int = 10**5
    trace: bool = False


@dataclass
class CommandResult:
    index: int
    command: str
    status: str  # ok | error
    name: str = ""
    tag: str = ""
    message: str = ""
    line: int = 0
    col: int = 0
    output: str = ""

    def as_dict(self) -> dict:
        return {
            "col": self.col,
            "command": self.command,
            "index": self.index,
            "line": self.line,
            "message": self.message,
            "name": self.name,
            "output": self.output,
            "status": self.status,
            "tag": self.tag,
        }


@dataclass
class RunReport:
    file: str
    calculus: str
    results: list = field(default_factory=list)
    theorems_certified: int = 0
    elapsed_s: float = 0.0
    trace: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.status == "ok" for r in self.results)

    def first_error(self) -> CommandResult | None:
        for r in self.results:
            if r.status != "ok":
                return r
        return None

    def to_json(self) -> str:
        doc = {
            "calculus": self.calculus,
            "commands": [r.as_dict() for r in self.results],
            "elapsed_s": round(self.elapsed_s, 6),
            "file": self.file,
            "ok": self.ok,
            "theorems_certified": self.theorems_certified,
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            head = f"[{r.index + 1:3}] {r.command}"
            if r.name:
                head += f" {r.name}"
            if r.status == "ok":
                line = f"{head}: ok"
                if r.output:
                    line += f" -- {r.output}"
            else:
                line = f"{head}: error[{r.tag}] at {r.line}:{r.col}: {r.message}"
            lines.append(line)
        lines.append(
            f"{self.file}: {'ok' if self.ok else 'FAILED'}, "
            f"{self.theorems_certified} theorem(s) certified"
        )
        return "\n".join(lines)


def _depth_exceeded(span) -> ScriptError:
    """The tagged error for input nested deeper than the recursion limit."""
    return ScriptError(
        "input nested too deeply: the recursion limit was exceeded",
        tag="depth-exceeded", span=span,
    )


@contextmanager
def depth_limit(filename: str):
    """Turn a RecursionError in the block into the depth-exceeded error at the
    start of the file."""
    try:
        yield
    except RecursionError:
        raise _depth_exceeded(Span(filename, 1, 1, 1, 1)) from None


class _Runner:
    calculus = "?"

    def __init__(self, options: Options, filename: str = "<script>"):
        self.options = options
        self.filename = filename
        self.report = RunReport(file=filename, calculus=self.calculus)

    def run(self, commands) -> RunReport:
        t0 = time.perf_counter()
        for i, cmd in enumerate(commands):
            kind = type(cmd).__name__
            name = getattr(cmd, "name", "")
            try:
                output = self.execute(cmd)
                self.report.results.append(
                    CommandResult(
                        i, kind, "ok", name=name,
                        line=cmd.span.line, col=cmd.span.col, output=output or "",
                    )
                )
            except FoundryError as e:
                span = e.span or cmd.span
                self.report.results.append(
                    CommandResult(
                        i, kind, "error", name=name, tag=e.tag,
                        message=e.message, line=span.line, col=span.col,
                    )
                )
                break
        self.report.elapsed_s = time.perf_counter() - t0
        return self.report

    def execute(self, cmd) -> str:
        try:
            if isinstance(cmd, sc.ExpectError):
                try:
                    self.execute(cmd.command)
                except FoundryError as e:
                    if e.tag == cmd.tag:
                        return f"expected error: {e.tag}"
                    raise ScriptError(
                        f"expected error tag {cmd.tag}, got {e.tag}: {e.message}"
                    ) from e
                raise ScriptError(f"expected an error tagged {cmd.tag}, but the command succeeded")
            return self.dispatch(cmd)
        except RecursionError:
            raise _depth_exceeded(cmd.span) from None

    def dispatch(self, cmd) -> str:
        raise ScriptError(f"command {type(cmd).__name__} is not supported in {self.calculus}")

    def block(self, tokens, what: str, parse, *args):
        """parse(cursor, *args) over the tokens of one `{...}` block, which
        must use the block up."""
        cur = sc.block_cursor(tokens, self.filename)
        value = parse(cur, *args)
        if not cur.done():
            cur.fail(f"trailing input in {what}")
        return value

    def trace(self, line: str) -> None:
        if self.options.trace:
            self.report.trace.append(line)


# ---------------------------------------------------------------------------
# FOL


class FolRunner(_Runner):
    calculus = "fol"

    def __init__(self, options: Options, filename: str = "<script>", theory=None):
        super().__init__(options, filename)
        mode = "classical" if options.classical else "intuitionistic"
        self.theory = theory or fol.pure_theory(fol.single_sorted(), mode)
        if theory is None:
            # scripts normally declare their own sorts; start with none
            self.theory = replace(
                self.theory, signature=fol.Signature(sorts=frozenset())
            )
        self.models: dict[str, fol.FiniteModel] = {}
        self.assumptions: list = []
        self.goal = None

    def env(self) -> FolEnv:
        return FolEnv(self.theory.signature)

    def parse_formula(self, tokens):
        return self.block(tokens, "formula", parse_fol_formula, self.env())

    def dispatch(self, cmd) -> str:
        match cmd:
            case sc.DeclareSort(name=name):
                sig = self.theory.signature.with_sort(fol.Sort(name))
                self.theory = replace(self.theory, signature=sig)
            case sc.DeclareFn(name=name, args=args, result=result):
                sig = self.theory.signature.with_function(
                    name, tuple(fol.Sort(a) for a in args), fol.Sort(result)
                )
                self.theory = replace(self.theory, signature=sig)
            case sc.DeclareRel(name=name, args=args):
                sig = self.theory.signature.with_relation(
                    name, tuple(fol.Sort(a) for a in args)
                )
                self.theory = replace(self.theory, signature=sig)
            case sc.DefineRel(name=name, params=params, body_tokens=body):
                pvars = tuple(fol.FVar(p, fol.Sort(s)) for p, s in params)
                env = FolEnv(self.theory.signature, {p: fol.Sort(s) for p, s in params})
                a = self.block(body, "formula", parse_fol_formula, env)
                self.theory = fol.extend_by_relation(self.theory, name, a, pvars)
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
            case sc.Check(body_tokens=body, type_tokens=None):
                a = self.parse_formula(body)
                fol.check_well_formed(self.theory.signature, a)
            case sc.ModelDef():
                self.models[cmd.name] = build_model(self.theory.signature, cmd)
            case sc.Theorem(name=name, statement_tokens=stmt, proof_kind=pk, proof_tokens=proof):
                statement = self.parse_formula(stmt)
                if pk == "nd":
                    d = self.block(proof, "proof", parse_nd, self.env())
                    cert = fol.check_nd(self.theory, d)
                    if self.options.trace:
                        _trace_nd(self, d)
                elif pk == "hilbert":
                    p = self.block(proof, "proof", parse_hilbert, self.env())
                    cert = fol.check_hilbert(self.theory, p)
                else:
                    raise ScriptError("fol theorems take nd { ... } or hilbert { ... } proofs")
                if not fol.alpha_equal(cert.conclusion, statement):
                    raise ScriptError(
                        f"proof concludes {fol.pretty_formula(cert.conclusion)}, "
                        f"statement says {fol.pretty_formula(statement)}"
                    )
                for h in cert.hypotheses:
                    if not self.theory.proves_outright(h):
                        raise ScriptError(
                            f"theorem cites a hypothesis outside the theory: "
                            f"{fol.pretty_formula(h)}"
                        )
                self.report.theorems_certified += 1
                return str(cert)
            case _:
                return super().dispatch(cmd)
        return ""


def _trace_nd(runner: FolRunner, d) -> None:
    from .fol.proof import _check

    def walk(node, depth):
        seq = _check(runner.theory, node, "trace")
        runner.trace("  " * depth + f"{seq}   [{type(node).__name__}]")
        for f in dataclasses.fields(node):
            v = getattr(node, f.name)
            if hasattr(v, "__dataclass_fields__") and not isinstance(
                v, (fol.FVar,)
            ) and type(v).__module__.endswith("fol.proof"):
                walk(v, depth + 1)

    walk(d, 0)


def build_model(sig: fol.Signature, cmd: sc.ModelDef) -> fol.FiniteModel:
    universes = {fol.Sort(s): tuple(elems) for s, elems in cmd.universes}
    functions = {
        name: {args: result for args, result in entries}
        for name, entries in cmd.functions
    }
    relations = {name: frozenset(tuples) for name, tuples in cmd.relations}
    model = fol.FiniteModel(universes=universes, functions=functions, relations=relations)
    model.validate(sig)
    return model


# ---------------------------------------------------------------------------
# STLC


class StlcRunner(_Runner):
    calculus = "stlc"

    def __init__(self, options: Options, filename: str = "<script>"):
        super().__init__(options, filename)
        self.consts: dict = {}

    def flags(self) -> stlc.ReductionFlags:
        return stlc.ReductionFlags(beta=True, eta=self.options.eta, iota=True)

    def _term(self, tokens):
        return self.block(tokens, "term", parse_stlc_term, self.consts)

    def _type(self, tokens):
        return self.block(tokens, "type", parse_stlc_type)

    def _trace_step(self, before, after) -> None:
        self.trace(f"{pretty_stlc(before)} --> {pretty_stlc(after)}")

    def dispatch(self, cmd) -> str:
        match cmd:
            case sc.DeclareTyped(name=name, type_tokens=ty):
                self.consts[name] = stlc.Const(name, self._type(ty))
            case sc.Define(name=name, type_tokens=ty, body_tokens=body):
                t = self._term(body)
                got = stlc.infer_type({}, t)
                if ty is not None and self._type(ty) != got:
                    raise ScriptError(
                        f"definition {name} has type {stlc.pretty_type(got)}"
                    )
                self.consts[name] = t
            case sc.TermMacro(name=name, body_tokens=body):
                self.consts[name] = self._term(body)
            case sc.Check(body_tokens=body, type_tokens=ty):
                t = self._term(body)
                got = stlc.infer_type({}, t)
                if ty is not None and self._type(ty) != got:
                    raise ScriptError(f"term has type {stlc.pretty_type(got)}")
                return stlc.pretty_type(got)
            case sc.Eval(body_tokens=body):
                t = self._term(body)
                stlc.infer_type({}, t)
                step = self._trace_step if self.options.trace else None
                nf = stlc.normalize(t, self.flags(), fuel=self.options.fuel, on_step=step)
                return pretty_stlc(nf)
            case sc.Theorem(name=name, statement_tokens=stmt, proof_kind="term", proof_tokens=body):
                t = self._term(body)
                want = self._type(stmt)
                got = stlc.infer_type({}, t)
                if got != want:
                    raise ScriptError(
                        f"term has type {stlc.pretty_type(got)}, stated {stlc.pretty_type(want)}"
                    )
                self.report.theorems_certified += 1
                return stlc.pretty_type(got)
            case _:
                return super().dispatch(cmd)
        return ""


# ---------------------------------------------------------------------------
# HOL


class HolRunner(_Runner):
    calculus = "hol"

    def __init__(self, options: Options, filename: str = "<script>", state=None):
        super().__init__(options, filename)
        self.state = state if state is not None else hk.initial_state()
        for ax in options.axioms:
            self.state = self.state.enable_axiom(ax)
        self.thms: dict[str, hk.HolTheorem] = {}
        self.macros: dict[str, hk.HolTerm] = {}
        self.named: list = []  # (name, theorem) in script order

    def _term(self, tokens):
        return self.block(tokens, "term", parse_hol_term, self.state, self.macros)
    def dispatch(self, cmd) -> str:
        match cmd:
            case sc.Define(name=name, type_tokens=None, body_tokens=body):
                t = self._term(body)
                self.state, thm = hk.new_definition(self.state, name, t)
                self.named.append((name, thm))
                return repr(thm)
            case sc.TermMacro(name=name, body_tokens=body):
                self.macros[name] = self._term(body)
            case sc.AxiomEnable(name=name):
                self.state = self.state.enable_axiom(name)
            case sc.Thm(name=name, proof_tokens=proof):
                thm = self.block(proof, "proof expression", self._eval_expr)
                self.thms[name] = thm
                self.named.append((name, thm))
                self.trace(f"{name}: {thm!r}")
                return repr(thm)
            case sc.Theorem(name=name, statement_tokens=stmt, proof_kind="rule-expr", proof_tokens=proof):
                statement = self._term(stmt)
                thm = self.block(proof, "proof expression", self._eval_expr)
                if thm.hypotheses:
                    raise ScriptError("theorems must have no hypotheses")
                if thm.conclusion != statement:
                    raise ScriptError(
                        f"proof concludes {pretty_hol(thm.conclusion)}, statement "
                        f"says {pretty_hol(statement)}"
                    )
                self.thms[name] = thm
                self.named.append((name, thm))
                self.report.theorems_certified += 1
                return repr(thm)
            case sc.Check(body_tokens=body, type_tokens=ty):
                t = self._term(body)
                got = hk.check_term(self.state, t)
                if ty is not None:
                    want = self.block(ty, "type", parse_hol_type, self.state)
                    if got != want:
                        raise ScriptError(f"term has type {hk.pretty_type(got)}")
                return hk.pretty_type(got)
            case _:
                return super().dispatch(cmd)
        return ""

    # rule expression evaluation ------------------------------------------

    # Each rule name's function: the kernel's primitives, the derived rules,
    # axioms and defining theorems. It has the keys of _SIGNATURES.
    _RULES = {
        **hk.RULES,
        "sym": hd.SYM, "ap_term": hd.AP_TERM, "ap_thm": hd.AP_THM,
        "beta_conv": hd.beta_conv, "truth": hd.TRUTH, "eqt_intro": hd.EQT_INTRO,
        "eqt_elim": hd.EQT_ELIM, "spec": hd.SPEC, "gen": hd.GEN,
        "disch": hd.DISCH, "undisch": hd.UNDISCH, "mp": hd.MP,
        "conj": hd.CONJ, "conjunct1": hd.CONJUNCT1, "conjunct2": hd.CONJUNCT2,
        "disj1": hd.DISJ1, "disj2": hd.DISJ2, "disj_cases": hd.DISJ_CASES,
        "not_intro": hd.NOT_INTRO, "not_elim": hd.NOT_ELIM, "contr": hd.CONTR,
        "exists_intro": hd.EXISTS, "ext": hd.EXT, "unfold": hd.unfold_rule,
        "conv_rule": hd.CONV_RULE, "axiom": hk.axiom, "defthm": hk.defining_theorem,
    }
    # The arguments each rule takes, in order: a {term}, a {variable}, a
    # theorem, a constant name or an axiom name.
    _SIGNATURES = {
        "refl": ("term",), "assume": ("term",), "trans": ("thm", "thm"),
        "mk_comb": ("thm", "thm"), "abs": ("var", "thm"), "beta": ("term",),
        "eta": ("term",), "eq_mp": ("thm", "thm"), "deduct_antisym": ("thm", "thm"),
        "sym": ("thm",), "ap_term": ("term", "thm"), "ap_thm": ("thm", "term"),
        "beta_conv": ("term",), "truth": (), "eqt_intro": ("thm",),
        "eqt_elim": ("thm",), "spec": ("term", "thm"), "gen": ("var", "thm"),
        "disch": ("term", "thm"), "undisch": ("thm",), "mp": ("thm", "thm"),
        "conj": ("thm", "thm"), "conjunct1": ("thm",), "conjunct2": ("thm",),
        "disj1": ("thm", "term"), "disj2": ("term", "thm"),
        "disj_cases": ("thm", "thm", "thm"), "not_intro": ("thm",),
        "not_elim": ("thm",), "contr": ("term", "thm"),
        "exists_intro": ("term", "term", "thm"), "ext": ("var", "thm"),
        "unfold": ("const", "thm"), "conv_rule": ("thm", "thm"),
        "axiom": ("axiom",), "defthm": ("const",),
    }
    _KIND_TEXT = {
        "term": "a {term}", "var": "a {variable}", "thm": "a theorem",
        "const": "a constant name", "axiom": "an axiom name",
    }

    def _eval_expr(self, cur: Cursor) -> hk.HolTheorem:
        """Evaluate one rule application; each argument is recorded as
        (kind, value, span of its first token)."""
        t = cur.expect_kind("ident")
        name = t.value
        args = []
        while True:
            p = cur.peek()
            if p.kind == "symbol" and p.value == "(":
                cur.next()
                args.append(("thm", self._eval_expr(cur), p.span))
                cur.expect(")")
            elif p.kind == "symbol" and p.value == "{":
                args.append(("term", self._term(sc._collect_braces(cur)), p.span))
            elif p.kind == "symbol" and p.value == "[":
                cur.next()
                ty = parse_hol_type(cur, self.state)
                cur.expect("]")
                args.append(("type", ty, p.span))
            elif p.kind == "tyvar":
                cur.next()
                args.append(("tyvar", p.value, p.span))
            elif p.kind == "ident":
                cur.next()
                args.append(("name", p.value, p.span))
            else:
                break
        return self._apply_rule(name, args, t.span)

    def _thm_arg(self, a):
        if a[0] == "thm":
            return a[1]
        if a[0] == "name":
            if a[1] in self.thms:
                return self.thms[a[1]]
            raise ScriptError(f"unknown theorem {a[1]}", span=a[2])
        raise ScriptError("expected a theorem argument", span=a[2])

    def _rule_args(self, name: str, args) -> list:
        """The values of a rule's arguments, checked against its signature.

        A missing, extra or wrongly shaped argument fails at the command.
        """
        kinds = self._SIGNATURES[name]
        fits = len(args) == len(kinds) and all(
            a[0] in ("thm", "name") if k == "thm"
            else a[0] == "name" if k in ("const", "axiom")
            else a[0] == "term" and (k == "term" or isinstance(a[1], hk.FVar))
            for k, a in zip(kinds, args)
        )
        if not fits:
            wanted = [self._KIND_TEXT[k] for k in kinds]
            if not wanted:
                raise ScriptError(f"{name} takes no arguments")
            text = wanted[0] if len(wanted) == 1 else f"{', '.join(wanted[:-1])} and {wanted[-1]}"
            raise ScriptError(f"{name} takes {text}")
        return [self._thm_arg(a) if k == "thm" else a[1] for k, a in zip(kinds, args)]

    @staticmethod
    def _pairs(name: str, args, first: str, second: str, what: str) -> list:
        """The (key, value) pairs an instantiation lists before its theorem:
        every argument but the last must belong to a complete pair whose
        parts have kinds `first` and `second`."""
        pairs = []
        for i in range(0, len(args) - 1, 2):
            key = args[i]
            if key[0] != first:
                raise ScriptError(f"{name}: expected {what} here", span=key[2])
            if args[i + 1][0] != second:  # the final theorem is never a `second`
                raise ScriptError(f"{name}: {what} must be followed by its replacement", span=key[2])
            pairs.append((key, args[i + 1]))
        return pairs

    def _apply_rule(self, name: str, args, span) -> hk.HolTheorem:
        st = self.state
        try:
            if name in ("inst_type", "inst_term") and not args:
                raise ScriptError(f"{name} needs a theorem")
            if name == "inst_type":
                th = self._thm_arg(args[-1])
                pairs = self._pairs(name, args, "tyvar", "type", "a type variable")
                return hk.inst_type(st, th, {x[1]: ty[1] for x, ty in pairs})
            if name == "inst_term":
                th = self._thm_arg(args[-1])
                mapping = {}
                for x, v in self._pairs(name, args, "term", "term", "a {variable}"):
                    if not isinstance(x[1], hk.FVar):
                        raise ScriptError("inst_term substitutes for variables", span=x[2])
                    mapping[x[1]] = v[1]
                return hk.inst_term(st, th, mapping)
            if name in self._RULES:
                return self._RULES[name](st, *self._rule_args(name, args))
        except FoundryError:
            raise
        except TypeError as e:
            raise ScriptError(f"bad arguments for {name}: {e}", span=span) from e
        if not args and name in self.thms:
            return self.thms[name]
        raise ScriptError(f"unknown rule or theorem {name}", span=span)


# ---------------------------------------------------------------------------
# DTT


class DttRunner(_Runner):
    calculus = "dtt"

    def __init__(self, options: Options, filename: str = "<script>"):
        super().__init__(options, filename)
        axioms = frozenset(a for a in options.axioms)
        self.cfg = dtt.KernelConfig(
            eta_for_pi=options.eta,
            cumulativity=options.cumulative,
            impredicative_prop=options.impredicative_prop,
            proof_irrelevance=options.proof_irrelevance,
            axioms=axioms,
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


RUNNERS = {"fol": FolRunner, "stlc": StlcRunner, "hol": HolRunner, "dtt": DttRunner}


def run_script_text(calculus: str, text: str, options: Options | None = None, filename: str = "<script>") -> RunReport:
    options = options or Options()
    runner = RUNNERS[calculus](options, filename)
    try:
        with depth_limit(filename):
            commands = sc.parse_script(text, filename)
    except FoundryError as e:
        report = RunReport(file=filename, calculus=calculus)
        span = e.span
        report.results.append(
            CommandResult(
                0, "parse", "error", tag=e.tag, message=e.message,
                line=span.line if span else 0, col=span.col if span else 0,
            )
        )
        return report
    return runner.run(commands)
