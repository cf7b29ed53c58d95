"""Command-line front end.

Subcommands: check, eval, model-check, cc, countermodel. `check` and `eval`
run a script in the calculus its extension names (`.fol`, `.stlc`, `.hol`,
`.dtt`: the scripted rows of `calculi.CALCULI`); `--calculus` overrides the
extension. Exit codes: 0 on success, 1 on a logical failure (reported with
one primary span), 2 on usage or I/O errors.
`--report json` emits the report with stable key order. `check` and `eval`
load only the calculus they run; FOL is imported by the problem-file
subcommands that use it.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import calculi
from .errors import FoundryError
from .run import Options, depth_limit, run_script_text
from .span import Span
from .surface import script as sc
from .surface.lexer import tokenize

if TYPE_CHECKING:
    from . import fol
    from .fol.runner import FolRunner


def _options(args) -> Options:
    flags = {name: getattr(args, name) for name in Options._fields if name != "axioms"}
    return Options(**flags, axioms=tuple(args.axiom or ()))


def _at_least(least: int):
    """An argparse type: an integer no smaller than `least`. argparse names it
    by its function's name, as in "invalid integer value: 'x'"."""

    def integer(text: str) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return integer


def _add_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--calculus", choices=calculi.SCRIPTED, help="default: the file's extension")
    p.add_argument("--classical", action="store_true", help="classical logic mode")
    p.add_argument("--eta", action="store_true", help="enable eta rules")
    p.add_argument("--cumulative", action="store_true", help="cumulative universes (dtt)")
    p.add_argument("--impredicative-prop", action="store_true", dest="impredicative_prop")
    p.add_argument("--proof-irrelevance", action="store_true", dest="proof_irrelevance")
    p.add_argument("--axiom", action="append", help="enable a named axiom (repeatable)")
    p.add_argument("--fuel", type=_at_least(0), default=10**5)
    p.add_argument("--trace", action="store_true")


def _usage(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        _usage(f"cannot read {path}: {e}")


def _emit(args, code: int, doc: dict, text: str) -> int:
    """Print a subcommand's report, as its JSON document or as its text, and
    return its exit code. Every subcommand prints through here."""
    if args.report == "json":
        import json  # only a JSON report loads it

        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(text)
    return code


def _run_file(args, value: bool = False) -> int:
    """Run the script in the calculus `--calculus` or its extension names and
    emit its report. With `value`, the output of its last eval follows the
    text report, or is the JSON document's `value`; a script that runs
    without one is a usage error, after its report."""
    calculus = args.calculus or calculi.of_file(args.file)
    if calculus is None:
        _usage(f"cannot tell the calculus of {args.file} from its extension: give --calculus")
    report = run_script_text(calculus, _read(args.file), _options(args), args.file)
    doc = report.as_dict()
    lines = [*(f"trace: {line}" for line in report.trace), report.to_text()]
    evals = [r.output for r in report.results if r.command == "Eval"]
    if value and report.ok and evals:
        doc["value"] = evals[-1]
        lines.append(evals[-1])
    code = _emit(args, 0 if report.ok else 1, doc, "\n".join(lines))
    if value and report.ok and not evals:
        _usage("no eval command in the file")
    return code


def _cmd_check(args) -> int:
    return _run_file(args)


def _cmd_eval(args) -> int:
    return _run_file(args, value=True)


_PROBLEM_COMMANDS = (sc.DeclareSort, sc.DeclareFn, sc.DeclareRel, sc.Assume, sc.Prove, sc.ModelDef)


def _load_problem(path: str, text: str) -> FolRunner:
    """Problem files: sort/fn/const/rel declarations, models, assume lines, one
    prove. They run through the FOL script runner's loop, and its first error
    is raised at that command's line and column."""
    from .fol.runner import FolRunner

    with depth_limit(path):
        commands = sc.parse_script(text, path)
    for cmd in commands:
        if not isinstance(cmd, _PROBLEM_COMMANDS):
            raise FoundryError(
                f"command {type(cmd).__name__} is not valid in a problem file",
                tag="usage", span=cmd.span,
            )
    runner = FolRunner(Options(), path)
    err = runner.run(commands).first_error()
    if err is not None:
        span = Span(path, err.line, err.col, err.line, err.col)
        raise FoundryError(err.message, tag=err.tag, span=span)
    return runner


def _cmd_cc(args) -> int:
    from . import fol

    def sides(formula, message: str) -> tuple:
        if not isinstance(formula, fol.Eq):
            raise FoundryError(message, tag="non-ground", span=formula.span)
        return formula.lhs, formula.rhs

    problem = _load_problem(args.file, _read(args.file))
    if problem.goal is None:
        _usage("problem file needs a prove line")
    eqs = [sides(a, "cc assumptions must be equations") for a in problem.assumptions]
    goal = sides(problem.goal, "cc goal must be an equation")
    with depth_limit(args.file):
        result = fol.congruence_closure(eqs, goal)
        classes = sorted(
            sorted(fol.pretty_term(t) for t in group) for group in (result.partition or ())
        )
    doc = {"file": args.file, "valid": result.valid, "classes": classes}
    if result.valid:
        return _emit(args, 0, doc, f"{args.file}: valid")
    lines = [f"{args.file}: not-entailed; subterm partition:"]
    lines += ["  { " + ", ".join(group) + " }" for group in classes]
    return _emit(args, 1, doc, "\n".join(lines))


def _cmd_countermodel(args) -> int:
    from . import fol

    problem = _load_problem(args.file, _read(args.file))
    if problem.goal is None:
        _usage("problem file needs a prove line")
    with depth_limit(args.file):
        model = fol.search_countermodel(
            problem.theory.signature, problem.assumptions, problem.goal, args.max_size
        )
    doc = {"file": args.file, "max_size": args.max_size, "found": model is not None}
    if model is None:
        text = f"{args.file}: no countermodel with universes up to size {args.max_size}"
        return _emit(args, 0, doc, text)
    doc["model"] = _model_doc(model)
    text = "\n".join([f"{args.file}: countermodel found", *_model_lines(model)])
    return _emit(args, 1, doc, text)


def _model_doc(model: fol.FiniteModel) -> dict:
    return {
        "universes": {s.name: list(map(str, e)) for s, e in model.universes.items()},
        "functions": {
            name: {",".join(map(str, k)): str(v) for k, v in table.items()}
            for name, table in model.functions.items()
        },
        "relations": {
            name: sorted(",".join(map(str, t)) for t in table)
            for name, table in model.relations.items()
        },
    }


def _model_lines(model: fol.FiniteModel):
    for sort, elems in sorted(model.universes.items(), key=lambda kv: kv[0].name):
        yield f"  sort {sort} = {{ " + ", ".join(map(str, elems)) + " }"
    for name in sorted(model.functions):
        entries = ", ".join(
            f"({', '.join(map(str, k))}) -> {v}" for k, v in sorted(model.functions[name].items())
        )
        yield f"  fn {name} = {{ {entries} }}"
    for name in sorted(model.relations):
        entries = ", ".join(f"({', '.join(map(str, k))})" for k in sorted(model.relations[name]))
        yield f"  rel {name} = {{ {entries} }}"


def _cmd_model_check(args) -> int:
    from . import fol

    model_text = _read(args.model_file)
    formula_text = _read(args.formula_file)
    problem = _load_problem(args.model_file, model_text)
    if len(problem.models) != 1:
        _usage("the model file must contain exactly one model")
    model = next(iter(problem.models.values()))
    with depth_limit(args.formula_file):
        formula = problem.parse_formula(tokenize(formula_text, args.formula_file))
        fol.check_well_formed(problem.theory.signature, formula)
        ok = fol.valid_in(model, formula)
    doc = {"formula_file": args.formula_file, "model_file": args.model_file, "holds": ok}
    text = f"{args.formula_file}: {'holds' if ok else 'fails'} in {args.model_file}"
    return _emit(args, 0 if ok else 1, doc, text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="foundry", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, fn, files, summary in (
        ("check", _cmd_check, ("file",), "run a proof script"),
        ("eval", _cmd_eval, ("file",), "run a script and print its final eval"),
        ("model-check", _cmd_model_check, ("model_file", "formula_file"),
         "evaluate a formula in a finite model"),
        ("cc", _cmd_cc, ("file",), "decide ground equational entailment"),
        ("countermodel", _cmd_countermodel, ("file",), "search for a finite countermodel"),
    ):
        sp = sub.add_parser(name, help=summary)
        for file in files:
            sp.add_argument(file)
        if name in ("check", "eval"):
            _add_flags(sp)
        elif name == "countermodel":
            sp.add_argument("--max-size", type=_at_least(1), default=3, dest="max_size")
        sp.add_argument("--report", choices=("text", "json"), default="text")
        sp.set_defaults(fn=fn)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    except FoundryError as e:
        where = f" at {e.span}" if e.span else ""
        print(f"error[{e.tag}]{where}: {e.message}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
