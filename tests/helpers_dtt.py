"""DTT test helpers: random well-typed closed terms of type Nat (the
canonicity corpus), the definitions a corpus script leaves, an enumeration
of the canonical inhabitants of Fin n, and two walks over `_SHAPE` that only
tests use: `map_subexprs`, which rebuilds a node with a function over its
children, and `contains_axiom`."""

from __future__ import annotations

import pathlib
import random

from foundry.dtt import (
    App, Bool, BoolCases, DttContext, FalseE, Inl, Inr, Lam, Nat, NatRec, Pair,
    Refl, Sigma, SigmaCases, Sum, SumCases, Succ, TrueE, Var, check,
    instantiate, numeral, whnf,
)
from foundry.dtt.runner import DttRunner
from foundry.dtt.syntax import _SHAPE, Axiom, _rebuild
from foundry.run import Options
from foundry.surface.script import parse_script

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

NAT = Nat()
NAT_MOTIVE = Lam(NAT, NAT, hint="_")
SIG_NN = Sigma(NAT, NAT)
SUM_NN = Sum(NAT, NAT)


def gen_dtt_nat(rng: random.Random, depth: int = 4, nvars: int = 0):
    """A closed term of type Nat; `nvars` Nat-typed binders are in scope."""
    if depth <= 0:
        if nvars and rng.random() < 0.5:
            return Var(rng.randrange(nvars))
        return numeral(rng.randrange(3))
    k = rng.randrange(8)
    if k == 0:
        return Succ(gen_dtt_nat(rng, depth - 1, nvars))
    if k == 1:
        return App(
            Lam(NAT, gen_dtt_nat(rng, depth - 1, nvars + 1), hint="x"),
            gen_dtt_nat(rng, depth - 1, nvars),
        )
    if k == 2:
        step = Lam(
            NAT,
            Lam(NAT, gen_dtt_nat(rng, depth - 1, nvars + 2), hint="ih"),
            hint="n",
        )
        return NatRec(
            NAT_MOTIVE,
            gen_dtt_nat(rng, depth - 1, nvars),
            step,
            gen_dtt_nat(rng, depth - 1, nvars),
        )
    if k == 3:
        return BoolCases(
            Lam(Bool(), NAT, hint="_"),
            gen_dtt_nat(rng, depth - 1, nvars),
            gen_dtt_nat(rng, depth - 1, nvars),
            rng.choice([TrueE(), FalseE()]),
        )
    if k == 4:
        branch = Lam(
            NAT, Lam(NAT, gen_dtt_nat(rng, depth - 1, nvars + 2), hint="y"), hint="x"
        )
        scrut = Pair(SIG_NN, gen_dtt_nat(rng, depth - 1, nvars), gen_dtt_nat(rng, depth - 1, nvars))
        return SigmaCases(Lam(SIG_NN, NAT, hint="_"), branch, scrut)
    if k == 5:
        on_l = Lam(NAT, gen_dtt_nat(rng, depth - 1, nvars + 1), hint="x")
        on_r = Lam(NAT, gen_dtt_nat(rng, depth - 1, nvars + 1), hint="y")
        inj = rng.choice([Inl, Inr])(SUM_NN, gen_dtt_nat(rng, depth - 1, nvars))
        return SumCases(Lam(SUM_NN, NAT, hint="_"), on_l, on_r, inj)
    if nvars and k == 6:
        return Var(rng.randrange(nvars))
    return numeral(rng.randrange(4))


def map_subexprs(e, f):
    """Rebuild e with f(child, binder_depth_increment) over each subexpression.

    When f returns every child itself (`is`), e itself is returned.
    """
    shape = _SHAPE.get(type(e))
    if shape is None:
        return e
    children = []
    changed = False
    for name, depth in shape:
        sub = getattr(e, name)
        new = f(sub, depth)
        if new is not sub:
            changed = True
        children.append(new)
    return _rebuild(e, children) if changed else e


def contains_axiom(e) -> bool:
    if isinstance(e, Axiom):
        return True
    return any(contains_axiom(getattr(e, name)) for name, _ in _SHAPE.get(type(e), ()))


def corpus_defs(name: str) -> dict:
    """The definitions and theorems of a corpus `.dtt` script, as its
    runner holds them after running the whole script."""
    runner = DttRunner(Options(), name)
    report = runner.run(parse_script((CORPUS / name).read_text(), name))
    assert report.ok, report.first_error()
    return runner.defs


def fin_inhabitants(cfg, fin, n: int) -> list:
    """Every closed canonical inhabitant pair x (pair z (refl m)) of the
    weak head normal form of `fin n` with numerals x, z, m at most n + 1."""
    ctx = DttContext()
    ty = whnf(cfg, App(fin, numeral(n)))
    found = []
    for x in range(n + 2):
        inner_ty = instantiate(ty.cod, numeral(x))
        for z in range(n + 2):
            for m in range(n + 2):
                cand = Pair(ty, numeral(x), Pair(inner_ty, numeral(z), Refl(Nat(), numeral(m))))
                try:
                    check(cfg, ctx, cand, ty)
                except Exception:
                    continue
                found.append(cand)
    return found
