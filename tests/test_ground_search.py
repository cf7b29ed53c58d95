"""The countermodel search against brute force and an unreduced reference DFS.

On ground equations the search tries a fresh constant or table entry only on
values up to one more than the largest value used so far. That cut must
leave the returned value vector unchanged: the reference below tries every
value, and both must return the same lexicographically least satisfying
vector. On quantified problems over several sorts, functions and relations,
the search must agree with `all_models` + `valid_in` on whether a
countermodel exists and on its universe sizes.
"""

import random

from foundry import fol
from foundry.fol import App, Eq, Exists, Forall, FVar, Implies, Or, Rel, Sort, neg
from foundry.fol.groundsearch import _lower, _search

from helpers import OBJ, gen_ground_problem, ground_signature


def reference_search(nodes, checks, k: int):
    """Plain DFS over all k values of every fresh key; the first vector
    found is the lexicographically least satisfying one."""
    n = len(nodes)
    val = [0] * n
    table: dict[tuple, int] = {}

    def go(pos: int) -> bool:
        if pos == n:
            return True
        sym, kids = nodes[pos]
        key = (sym, tuple(val[c] for c in kids))
        fresh = key not in table
        candidates = range(k) if fresh else (table[key],)
        for v in candidates:
            val[pos] = v
            if fresh:
                table[key] = v
            ok = True
            for (l, r, want) in checks[pos]:
                if (val[l] == val[r]) != want:
                    ok = False
                    break
            if ok and go(pos + 1):
                return True
            if fresh:
                del table[key]
        return False

    return val if go(0) else None


def lower_ground(consts, fns, eqs, goal):
    """The search's lowering of ground equations, which reads no sizes."""
    sig = ground_signature(consts, fns)
    return _lower(sig, [Eq(l, r) for l, r in eqs], Eq(*goal), (1,))


def test_same_vector_as_reference_and_every_check_holds():
    rng = random.Random(55)
    found = 0
    for _ in range(400):
        eqs, goal, consts, fns = gen_ground_problem(rng)
        lowered = lower_ground(consts, fns, eqs, goal)
        nodes = [(sym, kids) for sym, kids, *_ in lowered[0]]
        checks = [step[4] for step in lowered[0]]
        assert not any(step[5] for step in lowered[0])  # every check is a unit equation
        for k in range(1, 5):
            got = _search(lowered, (k,))
            assert got == reference_search(nodes, checks, k)
            if got is not None:
                found += 1
                assert len(got) == len(nodes) and all(0 <= v < k for v in got)
                for cks in checks:
                    for (l, r, want) in cks:
                        assert (got[l] == got[r]) == want
    assert 0 < found < 1600  # both outcomes are exercised


class _Counted(list):
    """A check list that counts how often the search reads it: once per
    value tried at its position."""

    reads = 0

    def __iter__(self):
        _Counted.reads += 1
        return super().__iter__()


def test_fresh_keys_try_at_most_one_new_value():
    a, b, c, d = (fol.const(x) for x in "abcd")
    # four distinct constants and an unsatisfiable goal d != d: the search
    # must exhaust every assignment it is willing to try
    steps, *rest = lower_ground([a, b, c, d], [], [(a, a), (b, b), (c, c)], (d, d))
    counted = [(*step[:4], _Counted(step[4]), step[5]) for step in steps]
    _Counted.reads = 0
    assert _search((counted, *rest), (4,)) is None
    # restricted growth prefixes of lengths 1..4: 1 + 2 + 5 + 15
    # (the reference tries 4 + 16 + 64 + 256)
    assert _Counted.reads == 23


# ---------------------------------------------------------------------------
# Quantified problems against brute force

A, B = Sort("A"), Sort("B")
TWO_SORTED = (
    fol.Signature(sorts=frozenset({A, B}))
    .with_function("a", (), A).with_function("f", (A,), B)
    .with_relation("R", (A, B)).with_relation("P", (B,))
)
# one sort, so sizes up to 3 stay within reach of brute force
ONE_SORTED = (
    fol.single_sorted("obj")
    .with_function("c", (), OBJ).with_function("g", (OBJ,), OBJ).with_relation("Q", (OBJ,))
)


def gen_problem(rng: random.Random, sig: fol.Signature):
    """Axioms and a goal over sig, with nested quantifiers; any of them may
    have free variables, which the search closes as `valid_in` reads them."""
    sorts = sorted(sig.sorts, key=lambda s: s.name)
    frees = [FVar(f"v{s}", s) for s in sorts]

    def term(sort, scope):
        options = [fol.BVar(len(scope) - 1 - i) for i, s in enumerate(scope) if s == sort]
        options += [v for v in frees if v.sort == sort and rng.random() < 0.3]
        for name, (args, res) in sorted(sig.functions.items()):
            if res == sort and (not args or not options or rng.random() < 0.5):
                options.append(App(name, tuple(term(s, scope) for s in args)))
        return rng.choice(options)

    def formula(depth, scope):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            name = rng.choice(sorted(sig.relations) + ["="])
            if name == "=":
                s = rng.choice(sorts)
                return Eq(term(s, scope), term(s, scope))
            return Rel(name, tuple(term(s, scope) for s in sig.relations[name]))
        if roll < 0.6:
            quant = rng.choice((Forall, Exists))
            s = rng.choice(sorts)
            return quant(s, formula(depth - 1, [*scope, s]))
        if roll < 0.7:
            return neg(formula(depth - 1, scope))
        conn = rng.choice((fol.And, Or, Implies))
        return conn(formula(depth - 1, scope), formula(depth - 1, scope))

    return [formula(3, []) for _ in range(rng.randrange(0, 3))], formula(3, [])


def brute_force(sig, axioms, goal, max_size):
    for model in fol.all_models(sig, max_size):
        if all(fol.valid_in(model, x) for x in axioms) and not fol.valid_in(model, goal):
            return model
    return None


# g has no fixed point, so its first entry needs a value no earlier cell of
# the sort took: a sort a quantifier ranges over gets no least-number cut
NO_FIXED_POINT = (
    [Forall(OBJ, neg(Eq(App("g", (fol.BVar(0),)), fol.BVar(0))))], Rel("Q", (fol.const("c"),)),
)


def test_agrees_with_brute_force_on_quantified_problems():
    rng = random.Random(25)
    outcomes = set()
    for sig, max_size, count in ((TWO_SORTED, 2, 100), (ONE_SORTED, 3, 40)):
        for i in range(count):
            axioms, goal = NO_FIXED_POINT if (sig, i) == (ONE_SORTED, 0) else gen_problem(rng, sig)
            want = brute_force(sig, axioms, goal, max_size)
            got = fol.search_countermodel(sig, axioms, goal, max_size)
            assert (got is None) == (want is None), (axioms, goal)
            outcomes.add(got is None)
            if got is not None:
                got.validate(sig)
                assert {s: len(u) for s, u in got.universes.items()} == {
                    s: len(u) for s, u in want.universes.items()
                }
                assert all(fol.valid_in(got, x) for x in axioms)
                assert not fol.valid_in(got, goal)
    assert outcomes == {True, False}
