"""The countermodel search behind `search_countermodel`, for every problem.

A depth-first search over the cells of an interpretation, function-table
entries and relation bits (which try 0, then 1), decided on demand as in SEM
(Zhang & Zhang, 1995) and Mace4. Universe sizes go in `all_models` order, so
the first sizes with a model are those brute force finds. The axioms, closed
universally, and the negated goal are grounded with negations at the atoms;
each top-level conjunct is a check, run once the last cell it reads is set.

A sort no quantifier ranges over gets the least-number cut of Paradox: a
fresh cell of the sort tries only 0..m+1, m the largest value of the sort so
far. Uncut, the DFS finds the lexicographically least satisfying vector. Were
a fresh cell's value v in it above m+1, swapping v and m+1 in the sort's
universe would give a model of the same checks (none names an element of the
sort) whose vector is lower at that cell and equal before: a contradiction."""

from __future__ import annotations

import itertools

from ..errors import SemanticsError
from .semantics import FiniteModel
from .syntax import And, App, Bot, BVar, Eq, Exists, Forall, Implies, Rel, forall_many, free_vars


def _join(conj: bool, parts):
    """The conjunction (or disjunction) of parts, flattened, constants folded."""
    out = []
    for p in parts:
        if p is not conj:
            if p is (not conj):
                return p
            out += p[1] if len(p) == 2 and p[0] is conj else (p,)
    return conj if not out else out[0] if len(out) == 1 else (conj, out)


def _lower(sig, axioms, goal, dims):
    """Ground the problem over universes of sizes dims (one per sort of sig,
    by name) as (steps, dims, bound); bound indexes the quantified sorts,
    whose sizes alone the grounding reads. steps is None if a check is false
    whatever the cells hold, else one (symbol, children, sort or -1 for a
    relation bit, previous cell of the sort if cut (-1 at its first) else -2,
    unit checks (lpos, rpos, want), other checks) per cell, children first,
    with each check at the last position it reads. val[-1-e] is the element e."""
    steps, index, bound, last = [], {}, set(), {}
    sorts = sorted(sig.sorts, key=lambda s: s.name)
    sort_of = {f: sorts.index(res) for f, (_args, res) in sig.functions.items()}

    def term(t, env) -> int:
        if type(t) is BVar:
            return -1 - env[-1 - t.index]
        key = (t.fn, tuple([term(u, env) for u in t.args]) if t.args else ())
        if key not in index:
            si = sort_of.get(t.fn, -1)
            if si < 0 and t.fn not in sig.relations:
                raise SemanticsError(f"symbol {t.fn} is not declared in the signature")
            steps.append((*key, si, last.get(si, -1) if si >= 0 else -2, [], []))
            index[key] = last[si] = len(steps) - 1
        return index[key]

    def ground(a, env, pos):
        cls = type(a)
        if cls is Eq:
            l, r = term(a.lhs, env), term(a.rhs, env)
            return (l, r, pos) if l >= 0 or r >= 0 else (l == r) == pos
        if cls is Rel:  # the bit is true when it equals the element 1
            return term(App(a.name, a.args), env), -2, pos
        if cls is Bot:
            return not pos
        if cls is Forall or cls is Exists:
            bound.add(k := sorts.index(a.sort))
            parts = (ground(a.body, env + (e,), pos) for e in range(dims[k]))
            return _join(pos == (cls is Forall), parts)
        sides = ((a.left, pos != (cls is Implies)), (a.right, pos))
        return _join(pos == (cls is And), (ground(b, env, p) for b, p in sides))

    def reads(check) -> int:  # the last position a check reads
        return max(check[:2]) if len(check) == 3 else max(map(reads, check[1]))

    top = _join(True, [*(ground(a, (), True) for a in axioms), ground(goal, (), False)])
    for check in (() if top in (True, False) else top[1] if top[0] is True else (top,)):
        steps[reads(check)][4 if len(check) == 3 else 5].append(check)
    steps = [(*st[:3], -2, *st[4:]) if st[2] in bound else st for st in steps] if bound else steps
    return None if top is False else steps, dims, bound


def _search(lowered, dims):
    """The least satisfying value vector over universes of sizes dims, or None."""
    steps, n = lowered[0], len(lowered[0] or ())
    val = [0] * n + [*reversed(range(max((*dims, 2))))]  # val[-1-e] == e
    tmax, dom, table = [0] * n + [1 << 30, 0], [*dims, 2], {}  # tmax: values of the sort in use

    def holds(check) -> bool:
        if len(check) == 3:
            return (val[check[0]] == val[check[1]]) == check[2]
        return (all if check[0] else any)(holds(c) for c in check[1])

    stack, pos, values = [], 0, None  # stack: the search's state at each assigned position
    while steps is not None:
        if values is None:
            if pos == n:
                return val[:n]
            sym, kids, si, prev, units, others = steps[pos]
            key = (sym, tuple([val[c] for c in kids]))
            top, fresh = tmax[prev], key not in table  # a fresh cell may take at most top
            values = iter(range(top + 1 if top < dom[si] else dom[si]) if fresh else (table[key],))
        for v in values:
            val[pos] = v
            if fresh:
                table[key] = v
            for (l, r, want) in units:
                if (val[l] == val[r]) != want:
                    break
            else:
                if not others or all(holds(c) for c in others):
                    tmax[pos] = top if v < top else v + 1
                    stack.append((pos, key, fresh, top, units, others, values))
                    pos, values = pos + 1, None
                    break
        else:  # no value holds: back to the previous position
            if fresh:
                del table[key]
            if not stack:
                return None
            pos, key, fresh, top, units, others, values = stack.pop()
    return None


def ground_countermodel(sig, axioms, goal, max_size: int) -> FiniteModel | None:
    """A countermodel at the first universe sizes up to max_size in `all_models` order, or None."""
    closed = [forall_many(sorted(fvs, key=lambda v: v.name), a) if (fvs := free_vars(a)) else a
              for a in (*axioms, goal)]
    lowered = []
    for dims in itertools.product(range(1, max_size + 1), repeat=len(sig.sorts)):
        # one grounding per size vector of the quantified sorts
        low = next((low for low in lowered if all(dims[i] == low[1][i] for i in low[2])), None)
        if low is None:
            lowered.append(low := _lower(sig, closed[:-1], closed[-1], dims))
        val = _search(low, dims)
        if val is not None:
            return _build_model(sig, low[0], val, dims)
    return None


def _build_model(sig, steps, val, dims) -> FiniteModel:
    universes = {s: tuple(range(k)) for s, k in zip(sorted(sig.sorts, key=lambda s: s.name), dims)}
    tables = {f: dict.fromkeys(itertools.product(*(universes[s] for s in args)), 0)
              for f, (args, _res) in sig.functions.items()} | {r: {} for r in sig.relations}
    for (sym, kids, _, _, _, _), v in zip(steps, val):
        tables[sym][tuple([val[c] if c >= 0 else -1 - c for c in kids])] = v
    relations = {r: frozenset(a for a, v in tables.pop(r).items() if v) for r in sig.relations}
    return FiniteModel(universes=universes, functions=tables, relations=relations)
