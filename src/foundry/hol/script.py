"""Sequential script execution over a kernel state.

`run_script` drives the surface command language against the kernel and
returns every named theorem in order (definitional theorems included). Any
kernel error aborts with its script line number.
"""

from __future__ import annotations

from ..errors import ScriptError
from .kernel import KernelState, initial_state


def run_script(state: KernelState | None, text: str, filename: str = "<script>"):
    """Run a HOL script; returns a list of (name, HolTheorem) pairs."""
    from ..run import Options, depth_limit
    from ..surface.script import parse_script
    from .runner import HolRunner

    runner = HolRunner(Options(), filename, state=state if state is not None else initial_state())
    with depth_limit(filename):
        commands = parse_script(text, filename)
    report = runner.run(commands)
    err = report.first_error()
    if err is not None:
        raise ScriptError(
            f"script aborted at line {err.line}: [{err.tag}] {err.message}",
            tag=err.tag,
        )
    return runner.named
