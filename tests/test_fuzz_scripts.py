"""End-to-end fuzz: mutated corpus scripts of all four calculi through
`run_script_text` always come back as a report.

Criterion 11 fuzzes `parse_script` alone, which leaves every command's body
unparsed; here each mutant also runs the calculus parser and the kernel, under
the options its golden file is checked with. A quarter of the characters a
mutation writes come from beyond ASCII, among them '²', which `str.isdigit`
accepts but `int()` rejects, and '٣', a decimal digit that `int()` reads as 3.
1,000 mutants take about 3 s.
"""

import random

from test_golden import CORPUS, MANIFEST

from foundry.calculi import of_file
from foundry.run import Options, RunReport, run_script_text

ASCII = "abcxyzPQ(){}[]:=->,~/\\ \n0123456789'"
UNICODE = "²٣ª½Ⅻ"  # letters, digits and numerals beyond ASCII
MUTANTS = 1000


def _char(rng: random.Random) -> str:
    return rng.choice(UNICODE if rng.random() < 0.25 else ASCII)


def mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randrange(1, 8)):
        pos = rng.randrange(len(chars))
        op = rng.randrange(3)
        if op == 0:
            chars[pos] = _char(rng)
        elif op == 1:
            del chars[pos]
        else:
            chars.insert(pos, _char(rng))
    return "".join(chars)


def test_mutated_scripts_always_return_a_report():
    rng = random.Random(20240611)
    scripts = [
        (name, of_file(name), Options(**kw), (CORPUS / name).read_text())
        for name, kw in sorted(MANIFEST.items())
    ]
    escaped = []
    for _ in range(MUTANTS):
        name, calculus, options, text = rng.choice(scripts)
        mutant = mutate(rng, text)
        try:
            report = run_script_text(calculus, mutant, options, name)
        except Exception as e:  # any escape is the failure under test
            escaped.append(f"{name}: {type(e).__name__}: {e}")
            continue
        assert isinstance(report, RunReport)
    assert escaped == []
