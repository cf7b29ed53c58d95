"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest benchmarks/perf -q

They check that tracing changes no output, that every rebound attribute is
put back, that call counts repeat exactly for a seed, and that the command
refuses to run without the sources it measures.
"""

from __future__ import annotations

import itertools
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

# A few operations of every kind from each workload: small enough to run
# traced in a couple of seconds.
PREFIX = {"scripts": 15, "oracle": 200, "surface": 150, "normalize": 40}


def ops_of(name: str, seed: int = 3):
    wl = workloads.build(name, seed, bench.ROOT)
    return list(itertools.islice(wl.stream(), PREFIX[name]))


def outputs(ops):
    texts = []
    for op in ops:
        ok, text = op.check(op.run())
        assert ok, (op.label, text)
        texts.append(text)
    return texts


def foundry_bindings():
    """Every attribute of every foundry module, and the items of the dicts
    held at module and class level, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "foundry" or name.startswith("foundry.")):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = id(value)
            containers = [value] if isinstance(value, dict) else []
            if isinstance(value, type):
                containers += [v for v in vars(value).values() if isinstance(v, dict)]
            for i, d in enumerate(containers):
                for k, v in d.items():
                    seen[(name, attr, i, repr(k))] = id(v)
    return seen


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_outputs_are_byte_identical(name):
    ops = ops_of(name)
    plain = outputs(ops)
    with layertrace.Tracer() as tracer:
        traced = outputs(ops)
    assert traced == plain
    assert sum(tracer.calls[layer] for layer in layertrace.LAYERS) > 0
    if name == "scripts":
        assert tracer.calls["dtt.kernel._conv"] > 0  # conversion checks are counted


def test_every_wrapped_attribute_is_restored():
    ops = ops_of("scripts")
    before = foundry_bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        import foundry.dtt.kernel as dk
        import foundry.dtt.syntax as ds
        import foundry.hol.kernel as hk

        assert hasattr(ds.shift, "__wrapped__") and hasattr(hk.REFL, "__wrapped__")
        assert hasattr(dk._conv, "__wrapped__")
        assert hk.RULES["refl"] is hk.REFL
        outputs(ops[:3])
    finally:
        tracer.restore()
    assert foundry_bindings() == before
    assert not hasattr(sys.modules["foundry.dtt.syntax"].shift, "__wrapped__")
    assert not hasattr(sys.modules["foundry.dtt.kernel"]._conv, "__wrapped__")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_call_counts_repeat_for_a_seed(name):
    counts = []
    for _ in range(2):
        ops = ops_of(name, seed=5)
        with layertrace.Tracer() as tracer:
            outputs(ops)
        counts.append((dict(tracer.calls), tracer.tokens, tracer.searches, tracer.found))
    assert counts[0] == counts[1]


def test_seed_fixes_the_inputs():
    a = [op.label for op in ops_of("surface", 9)]
    b = [op.label for op in ops_of("surface", 9)]
    c = [op.label for op in ops_of("surface", 10)]
    assert a == b and a != c
    assert outputs(ops_of("normalize", 9)) == outputs(ops_of("normalize", 9))


def test_references_catch_wrong_answers():
    dtt_op = next(op for op in ops_of("normalize") if op.label == "dtt")
    right = dtt_op.run()
    assert dtt_op.check(right)[0] and not dtt_op.check(right + 1)[0]
    script = next(op for op in ops_of("scripts") if op.label.startswith("script:"))
    assert not script.check(script.run() + " ")[0]


def test_refuses_to_run_without_the_sources(monkeypatch, capsys):
    missing = bench.ROOT / "no-such-directory"
    monkeypatch.setattr(bench, "SRC", missing / "src")
    monkeypatch.setattr(bench, "CORPUS", missing / "corpus")
    with pytest.raises(SystemExit) as exc:
        bench.main(["--workload", "scripts", "--seconds", "1"])
    assert exc.value.code != 0
    assert capsys.readouterr().out == ""
