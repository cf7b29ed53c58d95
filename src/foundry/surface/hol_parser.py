"""Recursive-descent parser for HOL terms and types, type-checked against a
kernel state as they are read. A bound name is read as its de Bruijn index
against the stack of the names and types the binders around it bind,
innermost first."""

from __future__ import annotations

from ..hol import kernel as hk
from .lexer import Cursor


def parse_hol_type(cur: Cursor, state: hk.KernelState) -> hk.HolType:
    t = cur.peek()
    if cur.at("("):
        cur.next()
        a = parse_hol_type(cur, state)
        cur.expect(")")
    elif t.kind == "tyvar":
        cur.next()
        a = hk.TyVar(t.value, span=t.span)
    else:
        name = cur.expect_kind("ident").value
        a = hk.TyApp(name, _hol_type_list(cur, state) if cur.at("[") else (), span=t.span)
        hk.check_type(state, a)
    if cur.at("->"):
        cur.next()
        return hk.fn(a, parse_hol_type(cur, state))
    return a


def parse_hol_type_expr(cur: Cursor, state: hk.KernelState | None = None) -> hk.HolType:
    """A type read against `state`, or else the initial kernel state."""
    return parse_hol_type(cur, state or hk.initial_state())


def _hol_type_list(cur: Cursor, state: hk.KernelState) -> tuple:
    """`[ ty {, ty} ]`."""
    cur.expect("[")
    types = [parse_hol_type(cur, state)]
    while cur.at(","):
        cur.next()
        types.append(parse_hol_type(cur, state))
    cur.expect("]")
    return tuple(types)


class _Pending:
    """A constant whose type instance is still being solved by matching."""

    def __init__(self, name: str, generic, span):
        self.name = name
        self.generic = generic
        self.env: dict = {}
        self.args: list = []
        self.residual = generic
        self.span = span

    def feed(self, cur, arg_term, arg_ty):
        res = self.residual
        if not (isinstance(res, hk.TyApp) and res.op == "fun"):
            cur.fail(f"constant {self.name} applied to too many arguments")
        if hk.type_match(res.args[0], arg_ty, self.env) is None:
            cur.fail(
                f"argument type {hk.pretty_type(arg_ty)} does not fit "
                f"{hk.pretty_type(hk.type_subst(res.args[0], self.env))} of {self.name}"
            )
        self.args.append(arg_term)
        self.residual = res.args[1]

    def solved(self) -> bool:
        # all of the constant's own type variables are pinned down (their
        # images may mention ambient type variables)
        return hk.ty_vars(self.generic) <= set(self.env)

    def finalize(self, cur):
        if not self.solved():
            cur.fail(
                f"cannot infer the type instance of {self.name}; "
                f"annotate with {self.name}[...]"
            )
        inst = hk.type_subst(self.generic, self.env)
        term = hk.Const(self.name, inst, span=self.span)
        ty = inst
        for a in self.args:
            term = hk.App(term, a)
            ty = ty.args[1]
        return term, ty


def parse_hol_term(cur: Cursor, state: hk.KernelState | None = None, macros=None, binders=()):
    term, ty = _hol_eq(cur, state or hk.initial_state(), macros or {}, binders)
    return term


def _hol_eq(cur, state, macros, binders):
    t0 = cur.peek()
    l, lty = _hol_app(cur, state, macros, binders)
    if cur.at("="):
        cur.next()
        r, rty = _hol_app(cur, state, macros, binders)
        if lty != rty:
            cur.fail(
                f"equation sides have types {hk.pretty_type(lty)} and {hk.pretty_type(rty)}"
            )
        return hk.mk_eq_at(lty, l, r), hk.PROP
    return l, lty


def _hol_app(cur, state, macros, binders):
    head = _hol_factor(cur, state, macros, binders)
    while _hol_starts_factor(cur):
        arg = _hol_factor(cur, state, macros, binders)
        head = _hol_apply(cur, head, arg)
    return _hol_finish(cur, head)


def _hol_apply(cur, head, arg):
    arg_term, arg_ty = _hol_finish(cur, arg)
    if isinstance(head, _Pending):
        head.feed(cur, arg_term, arg_ty)
        if head.solved():
            return head.finalize(cur)
        return head
    fn_term, fn_ty = head
    if not (isinstance(fn_ty, hk.TyApp) and fn_ty.op == "fun"):
        cur.fail(f"application of non-function of type {hk.pretty_type(fn_ty)}")
    if fn_ty.args[0] != arg_ty:
        cur.fail(
            f"argument type {hk.pretty_type(arg_ty)} does not match domain "
            f"{hk.pretty_type(fn_ty.args[0])}"
        )
    return hk.App(fn_term, arg_term), fn_ty.args[1]


def _hol_finish(cur, item):
    if isinstance(item, _Pending):
        return item.finalize(cur)
    return item


def _hol_starts_factor(cur):
    t = cur.peek()
    return t.kind in ("ident",) or cur.at("(")


def _hol_factor(cur, state, macros, binders):
    t = cur.peek()
    if cur.at("("):
        cur.next()
        # variable ascription (x : ty) or parenthesized term
        if (
            cur.at_kind("ident")
            and cur.tokens[cur.pos + 1].kind == "symbol"
            and cur.tokens[cur.pos + 1].value == ":"
            and not _is_hol_bound(cur.peek().value, binders)
            and cur.peek().value not in state.constants
            and cur.peek().value not in macros
        ):
            name = cur.next().value
            cur.expect(":")
            ty = parse_hol_type(cur, state)
            cur.expect(")")
            return hk.FVar(name, ty, span=t.span), ty
        inner = _hol_eq(cur, state, macros, binders)
        if cur.at(":"):
            cur.next()
            ty = parse_hol_type(cur, state)
            term, got = _hol_finish(cur, inner)
            if got != ty:
                cur.fail(f"ascription mismatch: term has type {hk.pretty_type(got)}")
            cur.expect(")")
            return term, got
        cur.expect(")")
        return inner
    if t.kind == "ident" and t.value == "fun":
        cur.next()
        groups = cur.binder_groups(lambda _bound: parse_hol_type(cur, state))
        cur.expect("=>")
        inner = tuple((n, ty) for n, ty, _ in reversed(groups)) + binders
        body, bty = _hol_eq(cur, state, macros, inner)
        for n, ty, _ in reversed(groups):
            body = hk.Abs(ty, body, hint=n)
            bty = hk.fn(ty, bty)
        return body, bty
    name = cur.expect_kind("ident").value
    for i, (n, ty) in enumerate(binders):
        if n == name:
            return hk.BVar(i, span=t.span), ty
    if name in (macros or {}):
        term = macros[name]
        return term, hk.type_of(term)
    if name in state.constants:
        decl = state.constants[name]
        if cur.at("["):
            args = _hol_type_list(cur, state)
            tvs = sorted(hk.ty_vars(decl.generic))
            if len(tvs) != len(args):
                cur.fail(f"{name} has {len(tvs)} type variable(s)")
            inst = hk.type_subst(decl.generic, dict(zip(tvs, args)))
            return hk.Const(name, inst, span=t.span), inst
        if not hk.ty_vars(decl.generic):
            return hk.Const(name, decl.generic, span=t.span), decl.generic
        return _Pending(name, decl.generic, t.span)
    cur.fail(f"unknown name {name}; bind it, declare it, or ascribe (x : ty)")


def _is_hol_bound(name, binders):
    return any(n == name for n, _ in binders)
