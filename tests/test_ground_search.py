"""The ground countermodel search against an unreduced reference DFS.

The search tries a fresh constant or table entry only on values up to one
more than the largest value used so far. That cut must leave the returned
value vector unchanged: the reference below tries every value, and both
must return the same lexicographically least satisfying vector.
"""

import random

from foundry import fol
from foundry.fol.groundsearch import _lower, _search

from helpers import gen_ground_problem


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


def test_same_vector_as_reference_and_every_check_holds():
    rng = random.Random(55)
    found = 0
    for _ in range(400):
        eqs, goal, _consts, _fns = gen_ground_problem(rng)
        nodes, checks, _terms = _lower(eqs, goal)
        for k in range(1, 5):
            got = _search(nodes, checks, k)
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
    nodes, checks, _terms = _lower([(a, a), (b, b), (c, c)], (d, d))
    _Counted.reads = 0
    assert _search(nodes, [_Counted(cks) for cks in checks], 4) is None
    # restricted growth prefixes of lengths 1..4: 1 + 2 + 5 + 15
    # (the reference tries 4 + 16 + 64 + 256)
    assert _Counted.reads == 23
