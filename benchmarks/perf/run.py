#!/usr/bin/env python3
"""foundry's benchmark: one command, four seeded closed-loop workloads.

    python3 benchmarks/perf/run.py --workload scripts --seed 1 --seconds 10 --trace 0

One caller, no threads: each operation starts after the previous one ends,
and every operation's result is checked against a reference (see
workloads.py). Workloads:

  scripts    the 14 golden corpus scripts through run_script_text, plus one
             in-process `foundry check`; reports compared byte for byte
  oracle     seeded ground-equation problems through congruence_closure and
             search_countermodel, cross-checked against each other, against
             `holds`, and against the benchmark's own saturation procedure
  surface    print->parse round trips in all four calculi, and byte-mutated
             corpus scripts through parse_script (parse or FoundryError)
  normalize  closed STLC terms under both strategies, closed DTT Nat terms
             through check and normalize against the benchmark's evaluator

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps each layer's public functions (layertrace.py) and reports per-layer calls,
self time, import time and the tracing overhead. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Lines before it show each metric with its unit and sample count, and the
machine and engine the numbers came from.

Seeds: DEFAULT_SEED for everyday runs; HELD_OUT_SEED is kept back, so that a
claimed gain can be confirmed on inputs not used while the change was made.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time
from statistics import median

DEFAULT_SEED = 1
HELD_OUT_SEED = 20240601

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"

SETUP_RUNS = 3           # fresh processes timed for setup_s
CORPUS_PROBE_PASSES = 8  # corpus passes in the other workloads' runs
CLI_LAUNCHES = 15        # fresh `foundry check` processes for cli_cold_ms
IMPORTTIME_RUNS = 5      # `python -X importtime` launches for import_ms
SUBPROCESS_TIMEOUT = 120

BREAKDOWN_SCRIPTS = ("diaconescu", "add_comm", "w_types")
# The primitive inference rules of the HOL kernel (HOL Light's ten plus ETA).
HOL_RULES = ("REFL", "ASSUME", "TRANS", "MK_COMB", "ABS", "BETA", "ETA", "EQ_MP",
             "DEDUCT_ANTISYM", "inst_type", "inst_term")
CALL_COUNTS = (
    "hol.kernel.type_of", "dtt.syntax.shift", "dtt.syntax.subst",
    "dtt.kernel.whnf", "dtt.kernel.defeq", "dtt.kernel.infer",
    "dtt.kernel.normalize", "fol.semantics.holds",
)
# defeq counts every conversion check: they all enter the kernel's private
# `_conv`, whether public `defeq` or the type checker asked for them.
TRACED_AS = {"dtt.kernel.defeq": "dtt.kernel._conv"}


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_child(args, **kw) -> subprocess.CompletedProcess:
    kw.setdefault("cwd", ROOT)
    return subprocess.run(args, env=child_env(), capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT, **kw)


def percentile(sorted_xs, q: float) -> float:
    """Linear-interpolated quantile of an already sorted list."""
    pos = q * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# running operations


class Tally:
    """Attempted and failed operations, and the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op):
        """Time one operation and check it; returns (seconds, text or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as e:  # any exception is a failed operation
            self.fail(op.label, f"{type(e).__name__}: {e}")
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        ok, text = op.check(out)
        if not ok:
            self.fail(op.label, f"wrong answer: {text[:200]!r}")
            return dt, None
        return dt, text

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{label}: {why}")


class Gauge:
    """The machine's momentary speed, from a fixed pure-Python loop.

    Shared machines drift in speed by tens of percent over seconds, which
    would swamp the differences the benchmark is meant to show. The loop
    shares no code with foundry. It is timed between measured segments, and
    each segment's times are scaled by NOMINAL_S / (median loop time of the
    few probes around the segment), which reports times as on a machine
    that runs the loop in NOMINAL_S. The overall scale is printed with the
    results.
    """

    NOMINAL_S = 0.022
    SPINS = 200_000
    WINDOW = 3  # probes on each side of a segment

    def __init__(self):
        self.probes = [self._probe()]
        self.segments: list = []

    def _probe(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(self.SPINS):
            s += i * i % 7
        return time.perf_counter() - t0

    def close(self, raw: list) -> int:
        """End a segment of raw times; returns its id for `scaled`."""
        self.segments.append(raw)
        self.probes.append(self._probe())
        return len(self.segments) - 1

    def scaled(self, seg: int) -> list:
        # segment `seg` lies between probes[seg] and probes[seg + 1]
        near = self.probes[max(0, seg + 1 - self.WINDOW): seg + 1 + self.WINDOW]
        f = self.NOMINAL_S / median(near)
        return [d * f for d in self.segments[seg]]

    def overall(self) -> float:
        raw = sum(sum(seg) for seg in self.segments)
        return sum(sum(self.scaled(i)) for i in range(len(self.segments))) / raw


SEGMENT_S = 0.5  # measured time between two gauge probes


class Loop:
    """A closed loop over a workload's operations, run in one or more
    stretches; each stretch goes on where the last one stopped."""

    def __init__(self, wl, tally: Tally, gauge: Gauge):
        self.wl, self.tally, self.gauge = wl, tally, gauge
        self.ops = wl.stream()
        self.i = 0
        self.tags: list = []      # (label, pass number) of each successful op
        self.segments: list = []  # gauge segment ids, in order

    def run(self, seconds: float) -> None:
        """Run until `seconds` have passed; a workload made of passes stops
        only between passes."""
        pass_len, gauge = self.wl.pass_len or 1, self.gauge
        start = seg_start = time.perf_counter()
        segment = []
        while True:
            op = next(self.ops)
            dt, text = self.tally.run(op)
            if text is not None:
                segment.append(dt)
                self.tags.append((op.label, self.i // pass_len))
            self.i += 1
            now = time.perf_counter()
            if now - seg_start >= SEGMENT_S:
                self.segments.append(gauge.close(segment))
                segment = []
                seg_start = time.perf_counter()
            if self.i % pass_len == 0 and now - start >= seconds:
                break
        self.segments.append(gauge.close(segment))

    def samples(self) -> list:
        """(label, pass number, scaled seconds) of each successful op."""
        times = [d for seg in self.segments for d in self.gauge.scaled(seg)]
        return [(label, p, d) for (label, p), d in zip(self.tags, times)]


def corpus_ops(seed: int) -> list:
    import workloads

    wl = workloads.build("scripts", seed, ROOT)
    return [op for op in itertools.islice(wl.stream(), wl.pass_len) if op.label.startswith("script:")]


def corpus_probe_child(seed: int) -> int:
    """The child side of `CorpusProbe`: one whole pass of the corpus scripts
    for each line read, answered with one JSON line of (label, seconds,
    failure or null) per script."""
    ops = corpus_ops(seed)
    print("ready", flush=True)
    for _request in sys.stdin:
        rows = []
        for op in ops:
            tally = Tally()
            dt, _text = tally.run(op)
            rows.append((op.label, dt, tally.errors[0] if tally.failed else None))
        print(json.dumps(rows), flush=True)
    return 0


class CorpusProbe:
    """Whole passes of the corpus scripts, run on request in a child process
    and spread over another workload's run, so that the corpus metrics
    sample the machine as the scripts workload does while the run's own
    peak RSS stays that of its workload."""

    def __init__(self, seed: int, tally: Tally, gauge: Gauge):
        self.tally, self.gauge = tally, gauge
        self.passes: list = []  # (gauge segment id, labels of its samples)
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--corpus-probe", "--workload", "scripts", "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        # wait until the child has built its inputs, so it is idle while
        # the workload is measured
        if self.proc.stdout.readline() != "ready\n":
            self.close()
            fail("corpus probe process did not start")

    def run_pass(self) -> None:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            fail("corpus probe process ended early")
        labels, raw = [], []
        for label, dt, error in json.loads(line):
            self.tally.attempted += 1
            if error is None:
                labels.append(label)
                raw.append(dt)
            else:
                self.tally.fail(label, error)
        self.passes.append((self.gauge.close(raw), labels))

    def samples(self) -> list:
        """(label, pass number, scaled seconds) of each successful script."""
        return [(label, p, dt)
                for p, (seg, labels) in enumerate(self.passes)
                for label, dt in zip(labels, self.gauge.scaled(seg))]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=SUBPROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def script_metrics(samples) -> dict:
    by_label, by_pass = {}, {}
    for label, p, dt in samples:
        by_label.setdefault(label, []).append(dt)
        if label.startswith("script:"):
            by_pass[p] = by_pass.get(p, 0.0) + dt
    # script ops run in whole passes only
    out = {"corpus_pass_s": (median(by_pass.values()), "s", len(by_pass))}
    for name in BREAKDOWN_SCRIPTS:
        xs = by_label["script:" + name]
        out["script_ms." + name] = (median(xs) * 1e3, "ms", len(xs))
    return out


def launches(args_list, gauge: Gauge, n: int, **kw):
    """Launch a fresh process `n` times, one at a time, each timed as its own
    gauge segment. Returns the processes and a function giving their scaled
    wall times in seconds once measuring is done."""
    procs, segments = [], []
    for _ in range(n):
        t0 = time.perf_counter()
        procs.append(run_child(args_list, **kw))
        segments.append(gauge.close([time.perf_counter() - t0]))
    return procs, lambda: [gauge.scaled(seg)[0] for seg in segments]


def end_to_end(args, wl, tally: Tally) -> tuple:
    """The end-to-end metrics, and notes to print."""
    import workloads

    gauge = Gauge()
    loop = Loop(wl, tally, gauge)
    if args.workload == "scripts":
        probe = loop
        loop.run(args.seconds)
    else:
        probe = CorpusProbe(args.seed, tally, gauge)
        try:
            for _ in range(CORPUS_PROBE_PASSES):
                loop.run(args.seconds / CORPUS_PROBE_PASSES)
                probe.run_pass()
        finally:
            probe.close()
    # the workload's own peak: the corpus probe, CLI and set-up launches
    # are child processes, which RUSAGE_SELF does not count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # `foundry check` on a small corpus script in a fresh process
    name = workloads.CLI_SCRIPT
    expected = (CORPUS / (name + ".expected")).read_text()
    cli_procs, cli_times = launches(
        [sys.executable, "-m", "foundry.cli", "check", name, "--calculus", workloads.SCRIPTS[name][0]],
        gauge, CLI_LAUNCHES, cwd=CORPUS)
    cli_ok = []
    for proc in cli_procs:
        tally.attempted += 1
        cli_ok.append(proc.returncode == 0 and proc.stdout == expected)
        if not cli_ok[-1]:
            tally.fail("cli", f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")

    # set-up: fresh processes that import foundry and build the inputs
    setup_procs, setup_times = launches(
        [sys.executable, __file__, "--setup-only", "--workload", args.workload, "--seed", str(args.seed)],
        gauge, SETUP_RUNS)
    for proc in setup_procs:
        if proc.returncode != 0:
            fail(f"set-up process failed: {proc.stderr.strip()[-500:]}")

    samples = loop.samples()
    lat = sorted(dt for _label, _p, dt in samples)
    cli_ms = [t * 1e3 for t, ok in zip(cli_times(), cli_ok) if ok]
    if not lat or not cli_ms:
        fail("no operation succeeded")
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s", len(lat)),
        "op_ms.p50": (percentile(lat, 0.5) * 1e3, "ms", len(lat)),
        "op_ms.p90": (percentile(lat, 0.9) * 1e3, "ms", len(lat)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        **script_metrics(probe.samples()),
        "cli_cold_ms": (median(cli_ms), "ms", len(cli_ms)),
        "setup_s": (median(setup_times()), "s", SETUP_RUNS),
    }
    return metrics, {"gauge.scale": gauge.overall()}


# ---------------------------------------------------------------------------
# traced run


def import_ms(layers) -> dict:
    """Per-layer import self time from `python -X importtime`, median of
    several fresh processes."""
    per_layer = {layer: [] for layer in layers}
    # foundry.cli first, as `foundry` starts; then the layers it loads lazily
    imports = "; ".join(f"import foundry.{layer}" for layer in ("cli", *layers))
    for _ in range(IMPORTTIME_RUNS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", imports])
        if proc.returncode != 0:
            fail(f"importtime launch failed: {proc.stderr.strip()[-500:]}")
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                try:
                    seen[parts[2].strip()] = int(parts[0].split(":")[1]) / 1e3
                except ValueError:
                    continue  # the header line
        for layer in layers:
            per_layer[layer].append(seen.get("foundry." + layer, 0.0))
    return {f"{layer}.import_ms": (median(xs), "ms", len(xs)) for layer, xs in per_layer.items()}


def per_layer(args, wl, tally: Tally) -> tuple:
    """Alternate untraced and traced passes over the workload's first
    `trace_ops` operations until `seconds` have passed; every pass must give
    the same outputs. Returns the metrics and notes to print."""
    from layertrace import LAYERS, Tracer

    ops = list(itertools.islice(wl.stream(), wl.trace_ops))
    plain_walls, traced_walls, tracers = [], [], []
    outputs = []
    start = time.perf_counter()
    while not plain_walls or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        outputs.append([tally.run(op)[1] for op in ops])
        plain_walls.append(time.perf_counter() - t0)
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer:
            outputs.append([tally.run(op)[1] for op in ops])
        traced_walls.append(time.perf_counter() - t0)
        tracers.append(tracer)
    if any(out != outputs[0] for out in outputs):
        tally.fail("trace", "traced and untraced passes gave different outputs")

    first = tracers[0]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (first.calls[layer], "count", 1)
        metrics[f"{layer}.self_s"] = (median([t.self_s[layer] for t in tracers]), "s", len(tracers))
    for key in CALL_COUNTS:
        metrics[f"{key}.calls"] = (first.calls[TRACED_AS.get(key, key)], "count", 1)
    metrics["hol.kernel.rule.calls"] = (sum(first.calls["hol.kernel." + r] for r in HOL_RULES), "count", 1)
    lexer_s = metrics["surface.lexer.self_s"][0]
    metrics["surface.lexer.tokens_per_s"] = (first.tokens / lexer_s if lexer_s else 0.0, "1/s", len(tracers))
    metrics["fol.groundsearch.found_ratio"] = (
        first.found / first.searches if first.searches else 0.0, "ratio", first.searches)
    metrics["trace.overhead_ratio"] = (median(traced_walls) / median(plain_walls), "ratio", len(tracers))
    metrics.update(import_ms(LAYERS))
    return metrics, {}


# ---------------------------------------------------------------------------


def environment() -> dict:
    """What the numbers depend on besides the code: interpreter, cores,
    commit, and which ground-search engine is in use."""
    try:
        import foundry._groundsearch  # noqa: F401
        compiled = True
    except ImportError:
        compiled = False
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": sha,
        "groundsearch_compiled_importable": compiled,
        "FOUNDRY_PURE_PYTHON": os.environ.get("FOUNDRY_PURE_PYTHON"),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("scripts", "oracle", "surface", "normalize"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--corpus-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "foundry" / "__init__.py").is_file() or not CORPUS.is_dir():
        fail(f"no foundry sources under {ROOT}: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(pathlib.Path(__file__).resolve().parent))
    import foundry
    import workloads

    if pathlib.Path(foundry.__file__).resolve().parent != SRC / "foundry":
        fail(f"imported foundry from {foundry.__file__}, not from {SRC}")
    if args.corpus_probe:
        return corpus_probe_child(args.seed)
    wl = workloads.build(args.workload, args.seed, ROOT)
    if args.setup_only:
        next(wl.stream())  # the first op's input
        return 0

    tally = Tally()
    metrics, notes = (per_layer if args.trace else end_to_end)(args, wl, tally)
    env = environment()

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"# {name:34} {value:16.6f} {unit:6} n={n}")
    for name, value in notes.items():
        print(f"# {name:34} {value:16.6f}")
    print(f"# attempted={tally.attempted} failed={tally.failed} "
          f"failed_ratio={tally.failed / max(tally.attempted, 1)}")
    for err in tally.errors:
        print(f"# failure: {err}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
