"""The HOL script runner: definitions and rule expressions evaluated against
the LCF kernel and its derived rules."""

from __future__ import annotations

from ..errors import FoundryError, ScriptError
from ..run import Options, _Runner
from ..surface import script as sc
from ..surface.hol_parser import parse_hol_term, parse_hol_type
from ..surface.lexer import Cursor
from . import derived as hd
from . import kernel as hk
from .printer import pretty_term


class HolRunner(_Runner):
    calculus = "hol"
    keywords = frozenset({"define", "term", "axiom-enable", "enable", "thm", "theorem", "check"})

    def __init__(self, options: Options, filename: str = "<script>"):
        super().__init__(options, filename)
        self.state = hk.initial_state()
        for ax in options.axioms:
            self.state = self.state.enable_axiom(ax)
        self.thms: dict[str, hk.HolTheorem] = {}
        self.macros: dict[str, hk.HolTerm] = {}

    def _term(self, tokens):
        return self.block(tokens, "term", parse_hol_term, self.state, self.macros)

    def dispatch(self, cmd) -> str:
        match cmd:
            case sc.Define(name=name, type_tokens=None, body_tokens=body):
                t = self._term(body)
                self.state, thm = hk.new_definition(self.state, name, t)
                return repr(thm)
            case sc.TermMacro(name=name, body_tokens=body):
                self.macros[name] = self._term(body)
            case sc.AxiomEnable(name=name):
                self.state = self.state.enable_axiom(name)
            case sc.Thm(name=name, proof_tokens=proof):
                thm = self.block(proof, "proof expression", self._eval_expr)
                self.thms[name] = thm
                text = repr(thm)
                self.trace(f"{name}: {text}")
                return text
            case sc.Theorem(name=name, statement_tokens=stmt, proof_kind="rule-expr", proof_tokens=proof):
                statement = self._term(stmt)
                thm = self.block(proof, "proof expression", self._eval_expr)
                if thm.hypotheses:
                    raise ScriptError("theorems must have no hypotheses")
                if thm.conclusion != statement:
                    raise ScriptError(
                        f"proof concludes {pretty_term(thm.conclusion, types=True)}, statement "
                        f"says {pretty_term(statement, types=True)}"
                    )
                self.thms[name] = thm
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

    # Each rule name's function (the kernel's primitives, the derived rules,
    # axioms and defining theorems) and the arguments it takes, in order: a
    # {term}, a {variable}, a theorem, a constant name or an axiom name.
    _RULES = {
        "refl": (hk.REFL, ("term",)),
        "assume": (hk.ASSUME, ("term",)),
        "trans": (hk.TRANS, ("thm", "thm")),
        "mk_comb": (hk.MK_COMB, ("thm", "thm")),
        "abs": (hk.ABS, ("var", "thm")),
        "beta": (hk.BETA, ("term",)),
        "eta": (hk.ETA, ("term",)),
        "eq_mp": (hk.EQ_MP, ("thm", "thm")),
        "deduct_antisym": (hk.DEDUCT_ANTISYM, ("thm", "thm")),
        "sym": (hd.SYM, ("thm",)),
        "ap_term": (hd.AP_TERM, ("term", "thm")),
        "ap_thm": (hd.AP_THM, ("thm", "term")),
        "beta_conv": (hd.beta_conv, ("term",)),
        "truth": (hd.TRUTH, ()),
        "eqt_intro": (hd.EQT_INTRO, ("thm",)),
        "eqt_elim": (hd.EQT_ELIM, ("thm",)),
        "spec": (hd.SPEC, ("term", "thm")),
        "gen": (hd.GEN, ("var", "thm")),
        "disch": (hd.DISCH, ("term", "thm")),
        "undisch": (hd.UNDISCH, ("thm",)),
        "mp": (hd.MP, ("thm", "thm")),
        "conj": (hd.CONJ, ("thm", "thm")),
        "conjunct1": (hd.CONJUNCT1, ("thm",)),
        "conjunct2": (hd.CONJUNCT2, ("thm",)),
        "disj1": (hd.DISJ1, ("thm", "term")),
        "disj2": (hd.DISJ2, ("term", "thm")),
        "disj_cases": (hd.DISJ_CASES, ("thm", "thm", "thm")),
        "not_intro": (hd.NOT_INTRO, ("thm",)),
        "not_elim": (hd.NOT_ELIM, ("thm",)),
        "contr": (hd.CONTR, ("term", "thm")),
        "exists_intro": (hd.EXISTS, ("term", "term", "thm")),
        "ext": (hd.EXT, ("var", "thm")),
        "unfold": (hd.unfold_rule, ("const", "thm")),
        "conv_rule": (hd.CONV_RULE, ("thm", "thm")),
        "axiom": (hk.axiom, ("axiom",)),
        "defthm": (hk.defining_theorem, ("const",)),
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

    def _rule_args(self, name: str, kinds, args) -> list:
        """The values of a rule's arguments, checked against the argument
        kinds it takes.

        A missing, extra or wrongly shaped argument fails at the command.
        """
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
                rule, kinds = self._RULES[name]
                return rule(st, *self._rule_args(name, kinds, args))
        except FoundryError:
            raise
        except TypeError as e:
            raise ScriptError(f"bad arguments for {name}: {e}", span=span) from e
        if not args and name in self.thms:
            return self.thms[name]
        raise ScriptError(f"unknown rule or theorem {name}", span=span)
