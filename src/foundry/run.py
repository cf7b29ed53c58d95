"""Script execution: per-calculus runners producing deterministic reports.

The CLI and the test suite both drive scripts through these runners. A report
carries one status per command; apart from the elapsed-time field it is a
pure function of the input. Each calculus's runner lives in its own package
(`foundry.<calculus>.runner`, named in `calculi.CALCULI`), and
`run_script_text` imports only the one it runs, so checking a script loads no
other calculus.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from . import calculi
from .errors import FoundryError, ScriptError
from .span import Span, node
from .surface import script as sc
from .surface.lexer import Cursor


@node
class Options:
    """What a script runs under: logic mode, kernel switches, axioms, fuel, tracing."""

    classical: bool = False
    eta: bool = False
    cumulative: bool = False
    impredicative_prop: bool = False
    proof_irrelevance: bool = False
    axioms: tuple = ()
    fuel: int = 10**5
    trace: bool = False


@node
class CommandResult:
    """One command's status in a run report, with its output or its tagged error."""

    index: int
    command: str
    status: str  # ok | error
    name: str = ""
    tag: str = ""
    message: str = ""
    line: int = 0
    col: int = 0
    output: str = ""

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


class RunReport:
    """The report of one script run: one result per command, in order."""

    def __init__(self, file: str, calculus: str):
        self.file, self.calculus = file, calculus
        self.results: list[CommandResult] = []
        self.theorems_certified = 0
        self.elapsed_s = 0.0
        self.trace: list[str] = []

    @property
    def ok(self) -> bool:
        return all(r.status == "ok" for r in self.results)

    def first_error(self) -> CommandResult | None:
        for r in self.results:
            if r.status != "ok":
                return r
        return None

    def as_dict(self) -> dict:
        """The report as the CLI's JSON document."""
        return {
            "calculus": self.calculus,
            "commands": [r.as_dict() for r in self.results],
            "elapsed_s": round(self.elapsed_s, 6),
            "file": self.file,
            "ok": self.ok,
            "theorems_certified": self.theorems_certified,
        }

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            head = f"[{r.index + 1:3}] {r.command}"
            if r.name:
                head += f" {r.name}"
            if r.status == "ok":
                line = f"{head}: ok"
                if r.output:
                    line += f" -- {r.output}"
            else:
                line = f"{head}: error[{r.tag}] at {r.line}:{r.col}: {r.message}"
            lines.append(line)
        lines.append(
            f"{self.file}: {'ok' if self.ok else 'FAILED'}, "
            f"{self.theorems_certified} theorem(s) certified"
        )
        return "\n".join(lines)


def _depth_exceeded(span) -> ScriptError:
    """The tagged error for input nested deeper than the recursion limit."""
    return ScriptError(
        "input nested too deeply: the recursion limit was exceeded",
        tag="depth-exceeded", span=span,
    )


@contextmanager
def depth_limit(filename: str):
    """Turn a RecursionError in the block into the depth-exceeded error at the
    start of the file."""
    try:
        yield
    except RecursionError:
        raise _depth_exceeded(Span(filename, 1, 1, 1, 1)) from None


class _Runner:
    calculus = "?"

    def __init__(self, options: Options, filename: str = "<script>"):
        self.options = options
        self.filename = filename
        self.report = RunReport(file=filename, calculus=self.calculus)

    def run(self, commands) -> RunReport:
        t0 = time.perf_counter()
        for i, cmd in enumerate(commands):
            kind = type(cmd).__name__
            name = getattr(cmd, "name", "")
            try:
                output = self.execute(cmd)
                self.report.results.append(
                    CommandResult(
                        i, kind, "ok", name=name,
                        line=cmd.span.line, col=cmd.span.col, output=output or "",
                    )
                )
            except FoundryError as e:
                span = e.span or cmd.span
                self.report.results.append(
                    CommandResult(
                        i, kind, "error", name=name, tag=e.tag,
                        message=e.message, line=span.line, col=span.col,
                    )
                )
                break
        self.report.elapsed_s = time.perf_counter() - t0
        return self.report

    def execute(self, cmd) -> str:
        try:
            if isinstance(cmd, sc.ExpectError):
                try:
                    self.execute(cmd.command)
                except FoundryError as e:
                    if e.tag == cmd.tag:
                        return f"expected error: {e.tag}"
                    raise ScriptError(
                        f"expected error tag {cmd.tag}, got {e.tag}: {e.message}"
                    ) from e
                raise ScriptError(f"expected an error tagged {cmd.tag}, but the command succeeded")
            return self.dispatch(cmd)
        except RecursionError:
            raise _depth_exceeded(cmd.span) from None

    def dispatch(self, cmd) -> str:
        raise ScriptError(f"command {type(cmd).__name__} is not supported in {self.calculus}")

    def block(self, tokens, what: str, parse, *args):
        """parse(cursor, *args) over the tokens of one `{...}` block, which
        must use the block up."""
        cur = Cursor(tokens, self.filename)
        value = parse(cur, *args)
        if not cur.done():
            cur.fail(f"trailing input in {what}")
        return value

    def trace(self, line: str) -> None:
        if self.options.trace:
            self.report.trace.append(line)


def run_script_text(calculus: str, text: str, options: Options | None = None, filename: str = "<script>") -> RunReport:
    runner = calculi.load(calculus, "runner")(options or Options(), filename)
    try:
        with depth_limit(filename):
            commands = sc.parse_script(text, filename)
    except FoundryError as e:
        span = e.span
        runner.report.results.append(
            CommandResult(
                0, "parse", "error", tag=e.tag, message=e.message,
                line=span.line if span else 0, col=span.col if span else 0,
            )
        )
        return runner.report
    return runner.run(commands)
