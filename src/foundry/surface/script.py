"""The proof-script command language shared by all four calculi.

Scripts are line-oriented with block expressions in braces and `--` comments.
parse_script performs the structural pass (commands, names, brace matching);
expression blocks are kept as token slices and parsed by the per-calculus
executors, which also enforce definition-before-use. Each command's
`keyword` is the keyword that starts it, as the script wrote it.
"""

from __future__ import annotations

from typing import Union

from ..errors import ParseError
from ..span import Span, node
from .lexer import Cursor, Token, tokenize


@node
class DeclareSort:
    """Script command `sort S`."""

    keyword = "sort"
    name: str
    span: Span


@node
class DeclareFn:
    """Script command `fn f : (S1, S2) -> S3` or `const c : S`."""

    name: str
    args: tuple[str, ...]
    result: str
    span: Span
    keyword: str = "fn"


@node
class DeclareRel:
    """Script command `rel R : (S1, S2)`."""

    keyword = "rel"
    name: str
    args: tuple[str, ...]
    span: Span


@node
class DeclareTyped:
    """`fn name : {type}` — an STLC constant declaration."""

    keyword = "fn"
    name: str
    type_tokens: tuple
    span: Span


@node
class Define:
    """Script command `define name [: {T}] := {e}`."""

    keyword = "define"
    name: str
    type_tokens: tuple | None
    body_tokens: tuple
    span: Span


@node
class DefineRel:
    """Script command `define rel R (x : S) := {A}`."""

    keyword = "define rel"
    name: str
    params: tuple  # (name, sort) pairs
    body_tokens: tuple
    span: Span


@node
class AxiomEnable:
    """Script command `axiom-enable name` or `enable name`."""

    name: str
    span: Span
    keyword: str = "axiom-enable"


@node
class AxiomDecl:
    """Script command `axiom Name : {A}`."""

    keyword = "axiom"
    name: str
    body_tokens: tuple
    span: Span


@node
class Theorem:
    """Script command `theorem name : {stmt} := PROOF`."""

    keyword = "theorem"
    name: str
    statement_tokens: tuple
    proof_kind: str  # nd | hilbert | term | rule-expr
    proof_tokens: tuple
    span: Span


@node
class Thm:
    """A named intermediate HOL theorem (not counted as certified)."""

    keyword = "thm"
    name: str
    proof_tokens: tuple
    span: Span


@node
class TermMacro:
    """Script command `term name := {e}`."""

    keyword = "term"
    name: str
    body_tokens: tuple
    span: Span


@node
class Check:
    """Script command `check {e} [: {T}]`."""

    keyword = "check"
    body_tokens: tuple
    type_tokens: tuple | None
    span: Span


@node
class Eval:
    """Script command `eval {e}`."""

    keyword = "eval"
    body_tokens: tuple
    span: Span


@node
class ModelDef:
    """Script command `model M { ... }`: universes, function tables and relations."""

    keyword = "model"
    name: str
    universes: tuple  # (sort, (elem, ...))
    functions: tuple  # (name, ((args...), result) tuple list)
    relations: tuple  # (name, ((args...), ...))
    span: Span


@node
class Assume:
    """Script command `assume {A}`."""

    keyword = "assume"
    body_tokens: tuple
    span: Span


@node
class Prove:
    """Script command `prove {A}`."""

    keyword = "prove"
    body_tokens: tuple
    span: Span


@node
class ExpectError:
    """Script command `expect-error TAG <command>`."""

    keyword = "expect-error"
    tag: str
    command: "ScriptCommand"
    span: Span


ScriptCommand = Union[
    DeclareSort, DeclareFn, DeclareRel, DeclareTyped, Define, DefineRel,
    AxiomEnable, AxiomDecl, Theorem, Thm, TermMacro, Check, Eval, ModelDef,
    Assume, Prove, ExpectError,
]


def _collect_braces(cur: Cursor) -> tuple:
    """Consume a brace-delimited block, returning the inner tokens plus a
    trailing eof token at the opening brace (so they can be re-parsed with a
    fresh cursor)."""
    open_tok = cur.expect("{")
    tokens = cur.tokens
    start = i = cur.pos
    depth = 1
    while True:
        t = tokens[i]
        if t.kind == "symbol":
            if t.value == "{":
                depth += 1
            elif t.value == "}":
                depth -= 1
                if depth == 0:
                    break
        elif t.kind == "eof":
            raise ParseError("unbalanced brace block", span=open_tok.span)
        i += 1
    cur.pos = i + 1
    return (*tokens[start:i], Token("eof", "", open_tok.span))


def _ident_tuple(cur: Cursor) -> tuple[str, ...]:
    """`( ident {, ident} )`, or `()`."""
    cur.expect("(")
    idents = []
    if not cur.at(")"):
        idents.append(cur.expect_kind("ident").value)
        while cur.at(","):
            cur.next()
            idents.append(cur.expect_kind("ident").value)
    cur.expect(")")
    return tuple(idents)


def _parse_model(cur: Cursor, name: str, span: Span) -> ModelDef:
    cur.expect("{")
    universes, functions, relations = [], [], []
    while not cur.at("}"):
        kw = cur.expect_kind("ident").value
        sym = cur.expect_kind("ident").value
        cur.expect("=")
        cur.expect("{")
        if kw == "sort":
            elems = []
            while not cur.at("}"):
                elems.append(cur.expect_kind("ident").value)
                if cur.at(",") or cur.at(";"):
                    cur.next()
            cur.expect("}")
            universes.append((sym, tuple(elems)))
        elif kw == "fn":
            entries = []
            while not cur.at("}"):
                args = _ident_tuple(cur)
                cur.expect("->")
                entries.append((args, cur.expect_kind("ident").value))
                if cur.at(",") or cur.at(";"):
                    cur.next()
            cur.expect("}")
            functions.append((sym, tuple(entries)))
        elif kw == "rel":
            tuples = []
            while not cur.at("}"):
                tuples.append(_ident_tuple(cur))
                if cur.at(",") or cur.at(";"):
                    cur.next()
            cur.expect("}")
            relations.append((sym, tuple(tuples)))
        else:
            cur.fail(f"unknown model section {kw}")
    cur.expect("}")
    return ModelDef(name, tuple(universes), tuple(functions), tuple(relations), span)


def _parse_command(cur: Cursor, names: set) -> ScriptCommand:
    t = cur.expect_kind("ident")
    kw = t.value
    if kw == "sort":
        return DeclareSort(cur.expect_kind("ident").value, t.span)
    if kw == "fn":
        name = cur.expect_kind("ident").value
        cur.expect(":")
        if cur.at("{"):
            _check_fresh(name, names, t.span)
            return DeclareTyped(name, _collect_braces(cur), t.span)
        args = _ident_tuple(cur)
        cur.expect("->")
        result = cur.expect_kind("ident").value
        return DeclareFn(name, args, result, t.span)
    if kw == "const":
        name = cur.expect_kind("ident").value
        cur.expect(":")
        sort = cur.expect_kind("ident").value
        return DeclareFn(name, (), sort, t.span, "const")
    if kw == "rel":
        name = cur.expect_kind("ident").value
        cur.expect(":")
        return DeclareRel(name, _ident_tuple(cur), t.span)
    if kw == "define":
        if cur.at_kind("ident") and cur.peek().value == "rel":
            cur.next()
            name = cur.expect_kind("ident").value
            cur.expect("(")
            params = []
            while not cur.at(")"):
                pname = cur.expect_kind("ident").value
                cur.expect(":")
                psort = cur.expect_kind("ident").value
                params.append((pname, psort))
                if cur.at(","):
                    cur.next()
            cur.expect(")")
            cur.expect(":=")
            return DefineRel(name, tuple(params), _collect_braces(cur), t.span)
        name = cur.expect_kind("ident").value
        _check_fresh(name, names, t.span)
        ty = None
        if cur.at(":"):
            cur.next()
            ty = _collect_braces(cur)
        cur.expect(":=")
        return Define(name, ty, _collect_braces(cur), t.span)
    if kw == "axiom" and cur.at("-"):
        cur.next()
        sub = cur.expect_kind("ident").value
        if sub != "enable":
            cur.fail("expected axiom-enable")
        return AxiomEnable(cur.expect_kind("ident").value, t.span)
    if kw == "enable":
        return AxiomEnable(cur.expect_kind("ident").value, t.span, "enable")
    if kw == "axiom":
        name = cur.expect_kind("ident").value
        cur.expect(":")
        return AxiomDecl(name, _collect_braces(cur), t.span)
    if kw == "theorem":
        name = cur.expect_kind("ident").value
        _check_fresh(name, names, t.span)
        cur.expect(":")
        stmt = _collect_braces(cur)
        cur.expect(":=")
        if cur.at_kind("ident") and cur.peek().value in ("nd", "hilbert"):
            pk = cur.next().value
            return Theorem(name, stmt, pk, _collect_braces(cur), t.span)
        if cur.at("{"):
            return Theorem(name, stmt, "term", _collect_braces(cur), t.span)
        return Theorem(name, stmt, "rule-expr", _collect_rule_expr(cur), t.span)
    if kw == "thm":
        name = cur.expect_kind("ident").value
        _check_fresh(name, names, t.span)
        cur.expect(":=")
        return Thm(name, _collect_rule_expr(cur), t.span)
    if kw == "term":
        name = cur.expect_kind("ident").value
        _check_fresh(name, names, t.span)
        cur.expect(":=")
        return TermMacro(name, _collect_braces(cur), t.span)
    if kw == "check":
        body = _collect_braces(cur)
        ty = None
        if cur.at(":"):
            cur.next()
            ty = _collect_braces(cur)
        return Check(body, ty, t.span)
    if kw == "eval":
        return Eval(_collect_braces(cur), t.span)
    if kw == "model":
        name = cur.expect_kind("ident").value
        return _parse_model(cur, name, t.span)
    if kw == "assume":
        return Assume(_collect_braces(cur), t.span)
    if kw == "prove":
        return Prove(_collect_braces(cur), t.span)
    if kw == "expect":
        cur.expect("-")
        sub = cur.expect_kind("ident").value
        if sub != "error":
            cur.fail("expected expect-error")
        tag = cur.expect_kind("ident").value
        while cur.at("-"):  # multi-word tags like prop-elimination
            cur.next()
            tag += "-" + cur.expect_kind("ident").value
        inner = _parse_command(cur, names)
        return ExpectError(tag, inner, t.span)
    raise ParseError(f"unknown command {kw}", span=t.span)


def _collect_rule_expr(cur: Cursor) -> tuple:
    """Consume a HOL rule expression: everything up to the next top-level
    command keyword (balanced in parens/braces/brackets), plus a trailing eof
    token at its first token.

    `assume` and `axiom` are also rule names, so they terminate the
    expression only when they look like command starts (axiom-enable).
    """
    tokens = cur.tokens
    start = i = cur.pos
    depth = 0
    while True:
        t = tokens[i]
        if t.kind == "eof":
            break
        if depth == 0 and t.kind == "ident" and t.value in _COMMAND_KEYWORDS:
            if t.value != "axiom":
                break
            nxt = tokens[i + 1]
            if nxt.kind == "symbol" and nxt.value == "-":
                break
        if t.kind == "symbol" and t.value in ("(", "{", "["):
            depth += 1
        elif t.kind == "symbol" and t.value in (")", "}", "]"):
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket in rule expression", span=t.span)
        i += 1
    first = tokens[start].span
    if i == start:
        raise ParseError("empty proof expression", span=first)
    cur.pos = i
    return (*tokens[start:i], Token("eof", "", first))


_COMMAND_KEYWORDS = {
    "sort", "fn", "const", "rel", "define", "enable", "axiom",
    "theorem", "thm", "term", "check", "eval", "model", "prove", "expect",
}


def parse_script(text: str, filename: str = "<script>") -> list[ScriptCommand]:
    """Ordered command list; duplicate theorem/definition/constant names rejected."""
    cur = Cursor(tokenize(text, filename), filename)
    names: set[str] = set()
    commands: list[ScriptCommand] = []
    while not cur.done():
        cmd = _parse_command(cur, names)
        if isinstance(cmd, (Define, DeclareTyped, Theorem, Thm, TermMacro)):
            names.add(cmd.name)
        commands.append(cmd)
    return commands


def _check_fresh(name: str, names: set, span: Span) -> None:
    if name in names:
        raise ParseError(f"duplicate name {name}", span=span)
