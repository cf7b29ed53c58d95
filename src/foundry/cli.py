"""Command-line front end.

Subcommands: check, eval, model-check, cc, countermodel. Exit codes: 0 on
success, 1 on a logical failure (reported with one primary span), 2 on usage
or I/O errors. `--report json` emits the run report with stable key order.
`check` and `eval` load only the calculus they run; FOL is imported by the
problem-file subcommands that use it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import FoundryError
from .run import RUNNERS, Options, RunReport, depth_limit, run_script_text
from .surface import script as sc
from .surface.lexer import tokenize

if TYPE_CHECKING:
    from . import fol
    from .fol.runner import FolRunner


def _options(args) -> Options:
    return Options(
        classical=args.classical,
        eta=args.eta,
        cumulative=args.cumulative,
        impredicative_prop=args.impredicative_prop,
        proof_irrelevance=args.proof_irrelevance,
        axioms=tuple(args.axiom or ()),
        fuel=args.fuel,
        trace=args.trace,
    )


def _add_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classical", action="store_true", help="classical logic mode")
    p.add_argument("--eta", action="store_true", help="enable eta rules")
    p.add_argument("--cumulative", action="store_true", help="cumulative universes (dtt)")
    p.add_argument("--impredicative-prop", action="store_true", dest="impredicative_prop")
    p.add_argument("--proof-irrelevance", action="store_true", dest="proof_irrelevance")
    p.add_argument("--axiom", action="append", help="enable a named axiom (repeatable)")
    p.add_argument("--fuel", type=int, default=10**5)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--report", choices=("text", "json"), default="text")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)


def _emit(report: RunReport, fmt: str) -> int:
    if fmt == "json":
        print(report.to_json())
    else:
        if report.trace:
            for line in report.trace:
                print(f"trace: {line}")
        print(report.to_text())
    return 0 if report.ok else 1


def _run_file(args) -> tuple[RunReport, int]:
    """Run the script file and emit its report; returns it and the exit code."""
    report = run_script_text(args.calculus, _read(args.file), _options(args), args.file)
    return report, _emit(report, args.report)


def _cmd_check(args) -> int:
    return _run_file(args)[1]


def _cmd_eval(args) -> int:
    report, code = _run_file(args)
    if code == 0:
        evals = [r for r in report.results if r.command == "Eval"]
        if not evals:
            print("error: no eval command in the file", file=sys.stderr)
            return 2
        print(evals[-1].output)
    return code


_PROBLEM_COMMANDS = (
    sc.DeclareSort, sc.DeclareFn, sc.DeclareRel, sc.Assume, sc.Prove, sc.ModelDef,
)


def _load_problem(path: str, text: str) -> FolRunner:
    """Problem files: sort/fn/const/rel declarations, models, assume lines, one
    prove. Each command runs through the FOL script runner."""
    from .fol.runner import FolRunner

    with depth_limit(path):
        commands = sc.parse_script(text, path)
    runner = FolRunner(Options(), path)
    for cmd in commands:
        if not isinstance(cmd, _PROBLEM_COMMANDS):
            raise FoundryError(
                f"command {type(cmd).__name__} is not valid in a problem file",
                tag="usage", span=cmd.span,
            )
        runner.execute(cmd)
    return runner


def _cmd_cc(args) -> int:
    from . import fol

    problem = _load_problem(args.file, _read(args.file))
    goal = problem.goal
    if goal is None:
        print("error: problem file needs a prove line", file=sys.stderr)
        return 2
    eqs = []
    for a in problem.assumptions:
        if not isinstance(a, fol.Eq):
            raise FoundryError("cc assumptions must be equations", tag="non-ground")
        eqs.append((a.lhs, a.rhs))
    if not isinstance(goal, fol.Eq):
        raise FoundryError("cc goal must be an equation", tag="non-ground")
    with depth_limit(args.file):
        result = fol.congruence_closure(eqs, (goal.lhs, goal.rhs))
        classes = sorted(
            sorted(fol.pretty_term(t) for t in group) for group in (result.partition or ())
        )
    if args.report == "json":
        doc = {"file": args.file, "valid": result.valid, "classes": classes}
        print(json.dumps(doc, sort_keys=True, indent=2))
    elif result.valid:
        print(f"{args.file}: valid")
    else:
        print(f"{args.file}: not-entailed; subterm partition:")
        for group in classes:
            print("  { " + ", ".join(group) + " }")
    return 0 if result.valid else 1


def _cmd_countermodel(args) -> int:
    from . import fol

    problem = _load_problem(args.file, _read(args.file))
    if problem.goal is None:
        print("error: problem file needs a prove line", file=sys.stderr)
        return 2
    with depth_limit(args.file):
        model = fol.search_countermodel(
            problem.theory.signature, problem.assumptions, problem.goal, args.max_size
        )
    if args.report == "json":
        doc = {"file": args.file, "max_size": args.max_size, "found": model is not None}
        if model is not None:
            doc["model"] = _model_doc(model)
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0 if model is None else 1
    if model is None:
        print(f"{args.file}: no countermodel with universes up to size {args.max_size}")
        return 0
    print(f"{args.file}: countermodel found")
    _print_model(model)
    return 1


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


def _print_model(model: fol.FiniteModel) -> None:
    for sort, elems in sorted(model.universes.items(), key=lambda kv: kv[0].name):
        print(f"  sort {sort} = {{ " + ", ".join(map(str, elems)) + " }")
    for name in sorted(model.functions):
        entries = ", ".join(
            f"({', '.join(map(str, k))}) -> {v}" for k, v in sorted(model.functions[name].items())
        )
        print(f"  fn {name} = {{ {entries} }}")
    for name in sorted(model.relations):
        entries = ", ".join(f"({', '.join(map(str, k))})" for k in sorted(model.relations[name]))
        print(f"  rel {name} = {{ {entries} }}")


def _cmd_model_check(args) -> int:
    from . import fol

    model_text = _read(args.model_file)
    formula_text = _read(args.formula_file)
    problem = _load_problem(args.model_file, model_text)
    if len(problem.models) != 1:
        print("error: the model file must contain exactly one model", file=sys.stderr)
        return 2
    model = next(iter(problem.models.values()))
    with depth_limit(args.formula_file):
        formula = problem.parse_formula(tokenize(formula_text, args.formula_file))
        fol.check_well_formed(problem.theory.signature, formula)
        ok = fol.valid_in(model, formula)
    if args.report == "json":
        doc = {"formula_file": args.formula_file, "model_file": args.model_file, "holds": ok}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"{args.formula_file}: {'holds' if ok else 'fails'} in {args.model_file}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="foundry", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    pc = sub.add_parser("check", help="run a proof script")
    pc.add_argument("file")
    pc.add_argument("--calculus", choices=RUNNERS, required=True)
    _add_flags(pc)
    pc.set_defaults(fn=_cmd_check)

    pe = sub.add_parser("eval", help="run a script and print its final eval")
    pe.add_argument("file")
    pe.add_argument("--calculus", choices=RUNNERS, default="stlc")
    _add_flags(pe)
    pe.set_defaults(fn=_cmd_eval)

    pm = sub.add_parser("model-check", help="evaluate a formula in a finite model")
    pm.add_argument("model_file")
    pm.add_argument("formula_file")
    pm.add_argument("--report", choices=("text", "json"), default="text")
    pm.set_defaults(fn=_cmd_model_check)

    pcc = sub.add_parser("cc", help="decide ground equational entailment")
    pcc.add_argument("file")
    pcc.add_argument("--report", choices=("text", "json"), default="text")
    pcc.set_defaults(fn=_cmd_cc)

    pcm = sub.add_parser("countermodel", help="search for a finite countermodel")
    pcm.add_argument("file")
    pcm.add_argument("--max-size", type=int, default=3, dest="max_size")
    pcm.add_argument("--report", choices=("text", "json"), default="text")
    pcm.set_defaults(fn=_cmd_countermodel)
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
