"""The benchmark's four workloads: seeded inputs, operations, references.

Each workload is a list of `Op`s built from a seed. `Op.run` does only the
program's work and is what gets timed; `Op.check` compares its result with
a reference the benchmark holds or computes itself, and returns whether it
is right plus a canonical text of the result (used to compare traced and
untraced runs byte for byte).

The program is reached only through public names looked up on foundry's
modules at call time (`fol.search_countermodel`, `frun.run_script_text`,
...), so the tracer's rebinding sees every call. Nothing is imported from
the repository's tests: the generators and references below are the
benchmark's own.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import pathlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import foundry.cli as fcli
import foundry.run as frun
from foundry import dtt, fol, hol, stlc, surface
from foundry.errors import FoundryError

# Per-script options, kept here because tests/test_golden.py's MANIFEST is
# not importable. Must match the options the golden reports were made with.
SCRIPTS = {
    "fol_basics.fol": ("fol", {}),
    "em_negative.fol": ("fol", {}),
    "stlc_basics.stlc": ("stlc", {}),
    "connectives.hol": ("hol", {}),
    "ext_rule.hol": ("hol", {}),
    "diaconescu.hol": ("hol", {"axioms": ("choice", "propext")}),
    "add_comm.dtt": ("dtt", {}),
    "nat_arith.dtt": ("dtt", {}),
    "fin.dtt": ("dtt", {}),
    "types_library.dtt": ("dtt", {}),
    "w_types.dtt": ("dtt", {}),
    "funext_stuck.dtt": ("dtt", {}),
    "prop_demo.dtt": ("dtt", {"impredicative_prop": True}),
    "girard.dtt": ("dtt", {}),
}
CLI_SCRIPT = "fol_basics.fol"  # small script for the CLI operations


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, str]]


@dataclass
class Workload:
    """A seeded, endless sequence of operations.

    `stream()` starts the sequence afresh: the same seed gives the same
    operations in the same order. The scripts workload repeats a fixed pass
    of `pass_len` operations; the others never repeat an input, so a run
    covers as many distinct inputs as it has time for."""

    name: str
    stream: Callable[[], Iterator[Op]]
    pass_len: int = 0    # 0: not made of passes
    trace_ops: int = 0   # how many operations the traced run repeats


def build(name: str, seed: int, root: pathlib.Path) -> Workload:
    return _BUILDERS[name](f"{name}:{seed}", root / "corpus")


def _mixed(seed: str, mix: dict, make: dict) -> Iterator[Op]:
    """Blocks holding `mix[kind]` operations of each kind, shuffled within
    the block; `make[kind](rng, i)` makes the i-th operation of a kind."""
    rng = random.Random(seed)
    counts = dict.fromkeys(mix, 0)
    while True:
        block = [kind for kind, n in mix.items() for _ in range(n)]
        rng.shuffle(block)
        for kind in block:
            yield make[kind](rng, counts[kind])
            counts[kind] += 1


# ---------------------------------------------------------------------------
# scripts: the golden corpus through run_script_text, plus foundry check


def _script_op(corpus: pathlib.Path, name: str) -> Op:
    calculus, options = SCRIPTS[name]
    text = (corpus / name).read_text()
    expected = (corpus / (name + ".expected")).read_text()

    def run():
        report = frun.run_script_text(calculus, text, frun.Options(**options), name)
        return report.to_text() + "\n"

    return Op("script:" + name.split(".")[0], run, lambda out: (out == expected, out))


def _cli_op(corpus: pathlib.Path) -> Op:
    path = str(corpus / CLI_SCRIPT)
    calculus = SCRIPTS[CLI_SCRIPT][0]
    lines = (corpus / (CLI_SCRIPT + ".expected")).read_text().splitlines()
    # the report's last line names the file as given on the command line
    lines[-1] = path + lines[-1][len(CLI_SCRIPT):]
    expected = "\n".join(lines) + "\n|exit 0"

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = fcli.run(["check", path, "--calculus", calculus])
        return f"{buf.getvalue()}|exit {code}"

    return Op("cli:check", run, lambda out: (out == expected, out))


def _scripts(seed: str, corpus: pathlib.Path) -> Workload:
    ops = [_script_op(corpus, name) for name in SCRIPTS] + [_cli_op(corpus)]
    random.Random(seed).shuffle(ops)
    return Workload("scripts", lambda: itertools.cycle(ops), pass_len=len(ops), trace_ops=len(ops))


# ---------------------------------------------------------------------------
# oracle: ground congruence problems, cross-validated kernels


OBJ = fol.Sort("obj")


def gen_ground_problem(rng: random.Random, shape: int):
    """A ground problem whose sizes (constants, functions, equations) are
    the `shape`-th of 30 combinations: cycling through them keeps the size
    mix, and so the time per run, the same for every seed. The uniform
    cycle is a choice made for the benchmark, not measured use: it sets
    the share of entailed problems (which search every size) and so what
    op_ms.p90 describes."""
    consts = [fol.const(c) for c in "abcd"[: 2 + shape % 3]]
    fns = ["f", "g"][: 1 + shape // 3 % 2]

    def term(depth):
        if depth <= 0 or rng.random() < 0.4:
            return rng.choice(consts)
        return fol.App(rng.choice(fns), (term(depth - 1),))

    eqs = [(term(2), term(2)) for _ in range(1 + shape // 6 % 5)]
    goal = (term(3), term(3))
    sig = fol.single_sorted("obj")
    for c in consts:
        sig = sig.with_function(c.fn, (), OBJ)
    for f in fns:
        sig = sig.with_function(f, (OBJ,), OBJ)
    return sig, eqs, goal


def saturate(eqs, goal) -> bool:
    """Entailment by naive fixpoint over the subterm set: merge equated
    classes, then congruent applications, until nothing changes. Shares no
    code or algorithm with the union-find congruence closure."""
    terms = set()

    def collect(t):
        terms.add(t)
        for a in t.args:
            collect(a)

    for l, r in [*eqs, goal]:
        collect(l)
        collect(r)
    cls = {t: i for i, t in enumerate(terms)}

    def merge(a, b) -> bool:
        ca, cb = cls[a], cls[b]
        if ca == cb:
            return False
        for t in cls:
            if cls[t] == cb:
                cls[t] = ca
        return True

    for l, r in eqs:
        merge(l, r)
    apps = [t for t in terms if t.args]
    changed = True
    while changed:
        changed = False
        for i, s in enumerate(apps):
            for t in apps[i + 1:]:
                if (s.fn == t.fn and len(s.args) == len(t.args)
                        and all(cls[a] == cls[b] for a, b in zip(s.args, t.args))):
                    changed |= merge(s, t)
    return cls[goal[0]] == cls[goal[1]]


def model_value(model, t):
    """A ground term's value read straight off the model's tables."""
    return model.functions[t.fn][tuple(model_value(model, a) for a in t.args)]


def refutes(model, eqs, goal) -> bool:
    """Whether the model satisfies every equation and falsifies the goal."""
    def same(l, r):
        return model_value(model, l) == model_value(model, r)

    return all(same(l, r) for l, r in eqs) and not same(*goal)


MAX_SIZE = 4


def _oracle_op(sig, eqs, goal) -> Op:
    eq_forms = [fol.Eq(l, r) for l, r in eqs]
    goal_form = fol.Eq(*goal)

    def run():
        cc = fol.congruence_closure(eqs, goal)
        found = fol.search_countermodel(sig, eq_forms, goal_form, MAX_SIZE)
        part = None
        if not cc.valid:
            part = fol.model_from_partition(sig, cc.partition)
            # the program's own semantic oracle confirms the partition model
            if not all(fol.holds(part, {}, f) for f in eq_forms) or fol.holds(part, {}, goal_form):
                part = None
        if found is not None and (
            not all(fol.holds(found, {}, f) for f in eq_forms) or fol.holds(found, {}, goal_form)
        ):
            found = "rejected by holds"
        return cc, part, found

    def check(out):
        cc, part, found = out
        classes = len(cc.partition) if cc.partition else 0
        size = len(found.universes[OBJ]) if isinstance(found, fol.FiniteModel) else 0
        text = f"valid={cc.valid} classes={classes} countermodel={size}"
        entailed = saturate(eqs, goal)
        if cc.valid != entailed:
            return False, text
        if entailed:
            return found is None, text
        if part is None or not refutes(part, eqs, goal):
            return False, text
        if found is None:
            # a partition model this small is a countermodel the search missed
            return classes > MAX_SIZE, text
        return isinstance(found, fol.FiniteModel) and size <= MAX_SIZE and refutes(found, eqs, goal), text

    return Op("oracle", run, check)


def _oracle(seed: str, corpus: pathlib.Path) -> Workload:
    def stream():
        rng = random.Random(seed)
        for i in itertools.count():
            yield _oracle_op(*gen_ground_problem(rng, i))

    return Workload("oracle", stream, trace_ops=1000)


# ---------------------------------------------------------------------------
# surface: print->parse round trips in four calculi, mutated scripts


FOL_SIG = (
    fol.single_sorted("obj")
    .with_relation("A", ()).with_relation("B", ()).with_relation("C", ())
    .with_relation("P", (OBJ,)).with_relation("Q", (OBJ,))
)
FOL_VARS = [fol.FVar(n, OBJ) for n in ("x", "y", "z")]


def gen_fol(rng: random.Random, depth: int):
    if depth <= 0:
        kind = rng.randrange(4)
        if kind == 0:
            return fol.Rel(rng.choice("ABC"), ())
        if kind == 1:
            return fol.Rel(rng.choice("PQ"), (rng.choice(FOL_VARS),))
        if kind == 2:
            return fol.Eq(rng.choice(FOL_VARS), rng.choice(FOL_VARS))
        return fol.Bot()
    kind = rng.randrange(6)
    if kind < 3:
        node = (fol.And, fol.Or, fol.Implies)[kind]
        return node(gen_fol(rng, depth - 1), gen_fol(rng, depth - 1))
    if kind < 5:
        binder = (fol.forall, fol.exists)[kind - 3]
        return binder(rng.choice(FOL_VARS), gen_fol(rng, depth - 1))
    return gen_fol(rng, 0)


DTT_NAT = dtt.Nat()
DTT_SIG_NN = dtt.Sigma(DTT_NAT, DTT_NAT)
DTT_SUM_NN = dtt.Sum(DTT_NAT, DTT_NAT)
DTT_MAX_VALUE = 24


def _lam(dom, body, hint):
    return dtt.Lam(dom, body, hint=hint)


def _natrec(base, step, target):
    return dtt.NatRec(_lam(DTT_NAT, DTT_NAT, "_"), base, _lam(DTT_NAT, _lam(DTT_NAT, step, "ih"), "n"), target)


def _add(a, b):
    return _natrec(a, dtt.Succ(dtt.Var(0)), b)


def gen_dtt_arith(rng: random.Random, depth: int, root: int):
    """A closed DTT term of type Nat: arithmetic by recursion (add, mul,
    pred) mixed with beta, pair, sum and bool redexes over small numerals.
    Every bound variable is used at most once in its body, so the
    normalizer's work grows with the value, not exponentially; terms whose
    value exceeds DTT_MAX_VALUE are drawn again. `root` picks the outermost
    form, so that callers can cycle through the forms evenly."""
    while True:
        e = _gen_arith(rng, depth, root % ARITH_FORMS)
        if eval_dtt(e) <= DTT_MAX_VALUE:
            return e


ARITH_FORMS = 9


def _gen_arith(rng: random.Random, depth: int, k: int | None = None):
    if depth <= 0:
        return dtt.numeral(rng.randrange(5))

    def sub():
        return _gen_arith(rng, depth - 1)

    if k is None:
        k = rng.randrange(ARITH_FORMS)
    if k == 0:
        return dtt.Succ(sub())
    if k == 1:
        return _add(sub(), sub())
    if k == 2:  # c * b: b rounds of adding a numeral c
        return _natrec(dtt.numeral(0), _add(dtt.Var(0), dtt.numeral(rng.randrange(4))), sub())
    if k == 3:  # pred
        return _natrec(dtt.numeral(0), dtt.Var(1), sub())
    if k == 4:
        body = rng.choice([dtt.Var(0), dtt.Succ(dtt.Var(0)), _add(dtt.Var(0), sub())])
        return dtt.App(_lam(DTT_NAT, body, "x"), sub())
    if k == 5:
        branch = rng.choice([dtt.Var(0), dtt.Var(1), _add(dtt.Var(1), dtt.Var(0))])
        pair = dtt.Pair(DTT_SIG_NN, sub(), sub())
        return dtt.SigmaCases(_lam(DTT_SIG_NN, DTT_NAT, "_"), _lam(DTT_NAT, _lam(DTT_NAT, branch, "y"), "x"), pair)
    if k == 6:
        on_l = _lam(DTT_NAT, dtt.Succ(dtt.Var(0)), "x")
        on_r = _lam(DTT_NAT, _add(dtt.Var(0), sub()), "y")
        inj = rng.choice([dtt.Inl, dtt.Inr])(DTT_SUM_NN, sub())
        return dtt.SumCases(_lam(DTT_SUM_NN, DTT_NAT, "_"), on_l, on_r, inj)
    if k == 7:
        target = rng.choice([dtt.TrueE(), dtt.FalseE()])
        return dtt.BoolCases(_lam(dtt.Bool(), DTT_NAT, "_"), sub(), sub(), target)
    return dtt.numeral(rng.randrange(5))


def gen_hol(rng: random.Random, ty, depth: int, scope: tuple = ()):
    """A well-typed HOL term over Prop and Ind, with the standard connectives."""
    if depth <= 0 or rng.random() < 0.3:
        candidates = [name for name, t in scope if t == ty]
        if candidates and rng.random() < 0.7:
            return hol.FVar(rng.choice(candidates), ty)
        if ty == hol.PROP:
            return hol.Const(rng.choice(["true", "false"]), hol.PROP)
        return hol.FVar(f"v{rng.randrange(3)}", ty)
    if isinstance(ty, hol.TyApp) and ty.op == "fun":
        x = hol.FVar(f"x{len(scope)}", ty.args[0])
        body = gen_hol(rng, ty.args[1], depth - 1, scope + ((x.name, x.type),))
        return hol.abs_over(x, body)
    if ty == hol.PROP:
        k = rng.randrange(4)
        if k == 0:
            side = rng.choice([hol.PROP, hol.IND])
            return hol.mk_eq(gen_hol(rng, side, depth - 1, scope), gen_hol(rng, side, depth - 1, scope))
        if k == 1:
            op = hol.Const(rng.choice(["and", "or", "imp"]), hol.fn(hol.PROP, hol.fn(hol.PROP, hol.PROP)))
            return hol.App(hol.App(op, gen_hol(rng, hol.PROP, depth - 1, scope)),
                           gen_hol(rng, hol.PROP, depth - 1, scope))
        if k == 2:
            dom = rng.choice([hol.PROP, hol.IND])
            forall = hol.Const("forall", hol.fn(hol.fn(dom, hol.PROP), hol.PROP))
            return hol.App(forall, gen_hol(rng, hol.fn(dom, hol.PROP), depth - 1, scope))
        return hol.App(hol.Const("not", hol.fn(hol.PROP, hol.PROP)), gen_hol(rng, hol.PROP, depth - 1, scope))
    # Ind: variables and applications of Ind-valued functions
    return hol.App(gen_hol(rng, hol.fn(hol.IND, ty), depth - 1, scope), gen_hol(rng, hol.IND, depth - 1, scope))


def _round_trip_op(calculus: str, ast, **parse_kw) -> Op:
    def run():
        text = surface.pretty(calculus, ast)
        return text, surface.parse_expr(calculus, text, **parse_kw)

    def check(out):
        text, back = out
        return back == ast, text

    return Op("roundtrip:" + calculus, run, check)


MUTANT_ALPHABET = "abcxyzPQ(){}[]:=->,~/\\ \n0123456789'"


def mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randrange(1, 8)):
        pos = rng.randrange(len(chars))
        op = rng.randrange(3)
        if op == 0:
            chars[pos] = rng.choice(MUTANT_ALPHABET)
        elif op == 1:
            del chars[pos]
        else:
            chars.insert(pos, rng.choice(MUTANT_ALPHABET))
    return "".join(chars)


def _mutant_op(text: str) -> Op:
    def run():
        try:
            return f"parsed {len(surface.parse_script(text))} commands"
        except FoundryError as e:  # a tagged error is a correct answer
            return f"error[{e.tag}] at {e.span}"

    # any other exception propagates and the op counts as failed
    return Op("mutant", run, lambda out: (True, out))


# Per block of 20. A choice made for the benchmark, not measured use: the
# mix sets which kind of operation op_ms.p50 and p90 describe. The two fast
# kinds (fol, hol) and dtt make up 40%, so the median lies inside the mass of
# stlc round trips and mutants, where it is steady, not at a gap.
SURFACE_MIX = {"fol": 3, "stlc": 3, "dtt": 3, "hol": 2, "mutant": 9}


def _surface(seed: str, corpus: pathlib.Path) -> Workload:
    hol_state, _ = hol.define_connectives(hol.initial_state())
    var_sorts = {v.name: OBJ for v in FOL_VARS}
    texts = [(corpus / name).read_text() for name in SCRIPTS]
    hol_types = [hol.PROP, hol.fn(hol.IND, hol.PROP)]
    # the i-th input of a kind cycles through sizes, forms and seed scripts
    make = {
        "fol": lambda rng, i: _round_trip_op("fol", gen_fol(rng, i % 4), signature=FOL_SIG, var_sorts=var_sorts),
        "stlc": lambda rng, i: _round_trip_op("stlc", stlc.gen_term(rng, stlc.gen_type(rng, 2), 4)),
        "dtt": lambda rng, i: _round_trip_op("dtt", gen_dtt_arith(rng, 3, i)),
        "hol": lambda rng, i: _round_trip_op("hol", gen_hol(rng, hol_types[i % 2], 3), state=hol_state),
        "mutant": lambda rng, i: _mutant_op(mutate(rng, texts[i % len(texts)])),
    }
    return Workload("surface", lambda: _mixed(seed, SURFACE_MIX, make), trace_ops=300)


# ---------------------------------------------------------------------------
# normalize: closed STLC terms under both strategies, closed DTT Nat terms


def eval_dtt(e, env=()):
    """Call-by-value evaluation of the closed Nat fragment `gen_dtt_arith`
    produces, with Python ints, closures, tuples and bools as values."""
    match e:
        case dtt.Zero():
            return 0
        case dtt.Succ(arg=a):
            return eval_dtt(a, env) + 1
        case dtt.Var(index=i):
            return env[i]
        case dtt.Lam(body=b):
            return lambda v: eval_dtt(b, (v, *env))
        case dtt.App(fn=f, arg=a):
            return eval_dtt(f, env)(eval_dtt(a, env))
        case dtt.NatRec(base=b, step=s, target=t):
            acc, step = eval_dtt(b, env), eval_dtt(s, env)
            for k in range(eval_dtt(t, env)):
                acc = step(k)(acc)
            return acc
        case dtt.TrueE():
            return True
        case dtt.FalseE():
            return False
        case dtt.BoolCases(if_true=t, if_false=f, target=b):
            return eval_dtt(t if eval_dtt(b, env) else f, env)
        case dtt.Pair(fst=a, snd=b):
            return (eval_dtt(a, env), eval_dtt(b, env))
        case dtt.SigmaCases(branch=br, scrutinee=sc):
            a, b = eval_dtt(sc, env)
            return eval_dtt(br, env)(a)(b)
        case dtt.Inl(value=v):
            return ("inl", eval_dtt(v, env))
        case dtt.Inr(value=v):
            return ("inr", eval_dtt(v, env))
        case dtt.SumCases(on_left=l, on_right=r, scrutinee=sc):
            side, v = eval_dtt(sc, env)
            return eval_dtt(l if side == "inl" else r, env)(v)
    raise TypeError(f"outside the evaluated fragment: {type(e).__name__}")


def _stlc_op(ty, term) -> Op:
    def run():
        lo = stlc.normalize(term, stlc.DEFAULT_FLAGS, stlc.LEFTMOST_OUTERMOST)
        ri = stlc.normalize(term, stlc.DEFAULT_FLAGS, stlc.RIGHTMOST_INNERMOST)
        return lo, ri, stlc.infer_type({}, lo)

    def check(out):
        lo, ri, lo_ty = out
        return lo == ri and lo_ty == ty, repr(lo)

    return Op("stlc", run, check)


DTT_CFG = dtt.KernelConfig()
DTT_CTX = dtt.DttContext()


def _dtt_op(e) -> Op:
    def run():
        dtt.check(DTT_CFG, DTT_CTX, e, DTT_NAT)
        return dtt.numeral_value(dtt.normalize(DTT_CFG, DTT_CTX, e))

    return Op("dtt", run, lambda out: (out == eval_dtt(e), str(out)))


# Per block of 7. A choice made for the benchmark, not measured use: it sets
# which kind of operation op_ms.p50 and p90 describe. A DTT term costs three
# to four times an STLC term, so DTT takes about nine tenths of the time and
# op_ms.p50 falls among the DTT terms.
NORMALIZE_MIX = {"stlc": 2, "dtt": 5}
DTT_DEPTH = 3


def _normalize(seed: str, corpus: pathlib.Path) -> Workload:
    def stlc_op(rng, _i):
        ty = stlc.gen_type(rng, 2)
        return _stlc_op(ty, stlc.gen_term(rng, ty, 6))

    make = {"stlc": stlc_op, "dtt": lambda rng, i: _dtt_op(gen_dtt_arith(rng, DTT_DEPTH, i))}
    return Workload("normalize", lambda: _mixed(seed, NORMALIZE_MIX, make), trace_ops=84)


_BUILDERS = {
    "scripts": _scripts,
    "oracle": _oracle,
    "surface": _surface,
    "normalize": _normalize,
}
WORKLOADS = tuple(_BUILDERS)
