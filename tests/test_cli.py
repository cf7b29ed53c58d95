import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

import foundry
from foundry.cli import run as cli
from foundry.dtt.syntax import numeral_value as dtt_numeral_value
from foundry.errors import FoundryError
from foundry.run import run_script_text
from foundry.stlc.syntax import numeral_value as stlc_numeral_value
from foundry.surface import parse_expr, pretty
from foundry.surface.lexer import MAX_NUMERAL

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def test_check_exit_codes(capsys):
    assert cli(["check", str(CORPUS / "fol_basics.fol"), "--calculus", "fol"]) == 0
    capsys.readouterr()
    assert cli(["check", str(CORPUS / "girard.dtt"), "--calculus", "dtt"]) == 1
    out = capsys.readouterr().out
    assert "universe-error" in out and re.search(r"at \d+:\d+", out)


def test_missing_file_is_usage_error(capsys):
    assert cli(["check", "no_such_file.fol", "--calculus", "fol"]) == 2


def test_a_file_that_is_not_utf8_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "latin1.fol"
    path.write_bytes(b"\xffsort obj\n")
    for argv in (["check"], ["eval"], ["cc"], ["countermodel"], ["model-check", str(path)]):
        assert cli([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )


def test_unknown_flag_is_usage_error():
    assert cli(["check", str(CORPUS / "fol_basics.fol"), "--calculus", "fol", "--zap"]) == 2


def test_eval_prints_final_value(capsys):
    code = cli(["eval", str(CORPUS / "nat_arith.dtt"), "--calculus", "dtt"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[-1] == "12"


def test_cc_reports(capsys):
    assert cli(["cc", str(CORPUS / "cc_valid.fol")]) == 0
    capsys.readouterr()
    assert cli(["cc", str(CORPUS / "cc_notentailed.fol")]) == 1
    out = capsys.readouterr().out
    assert "not-entailed" in out and "partition" in out


def test_countermodel_exit_codes(capsys):
    assert cli(["countermodel", str(CORPUS / "cm_two_elements.fol"), "--max-size", "2"]) == 1
    capsys.readouterr()
    assert cli(["countermodel", str(CORPUS / "cm_classical_tautology.fol"), "--max-size", "3"]) == 0


def test_a_tautological_assumption_leaves_the_countermodel_alone(tmp_path, capsys):
    # every sort gets the smallest size that works, whatever the problem's shape
    head = "sort A\nsort B\nconst a : A\nconst b : A\nconst c : B\nrel P : (B)\n"
    reports = []
    for extra in ("", "assume { P(c) -> P(c) }\n"):
        path = tmp_path / "problem.fol"
        path.write_text(head + extra + "prove { a = b }\n")
        assert cli(["countermodel", str(path), "--max-size", "2"]) == 1
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert reports[0].splitlines()[1:5] == [
        "  sort A = { 0, 1 }", "  sort B = { 0 }", "  fn a = { () -> 0 }", "  fn b = { () -> 1 }",
    ]


@pytest.mark.parametrize("sorts", ["", "sort A\nsort B\n"], ids=["no-sort", "two-sorts"])
def test_a_nullary_relation_needs_no_sort(sorts, tmp_path, capsys):
    """A lone name declared `rel P : ()` is that atom, with or without one
    sort to give a variable of its name."""
    head = sorts + "rel P : ()\nrel Q : ()\n"
    path = tmp_path / "props.fol"
    path.write_text(head + "prove {P -> P}\n")
    assert cli(["check", str(path)]) == 0
    assert "Prove: ok" in capsys.readouterr().out
    code, err, _ = _problem_run(tmp_path, capsys, "cc", head + "prove { P }\n")
    assert code == 1 and "error[non-ground]" in err and "cc goal must be an equation" in err
    path.write_text(head + "assume { P }\nprove { P -> Q }\n")
    assert cli(["countermodel", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == ["  rel P = { () }", "  rel Q = {  }"]


def test_model_check(capsys):
    code = cli(["model-check", str(CORPUS / "geometry.model"), str(CORPUS / "geometry.formula")])
    assert code == 0


def test_json_report_idempotent(capsys):
    args = ["check", str(CORPUS / "add_comm.dtt"), "--calculus", "dtt", "--report", "json"]
    assert cli(args) == 0
    first = capsys.readouterr().out
    assert cli(args) == 0
    second = capsys.readouterr().out

    def strip_elapsed(s):
        doc = json.loads(s)
        doc.pop("elapsed_s")
        return json.dumps(doc, sort_keys=True)

    assert strip_elapsed(first) == strip_elapsed(second)
    doc = json.loads(first)
    assert doc["ok"] is True and doc["theorems_certified"] == 1
    # stable key order: serialization sorts keys
    assert first.index('"calculus"') < first.index('"commands"') < first.index('"file"')


def test_trace_flag(capsys):
    code = cli(["check", str(CORPUS / "fol_basics.fol"), "--calculus", "fol", "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace:" in out and "[Hyp]" in out


def test_diaconescu_via_cli(capsys):
    code = cli([
        "check", str(CORPUS / "diaconescu.hol"), "--calculus", "hol",
        "--axiom", "choice", "--axiom", "propext",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 theorem(s) certified" in out


def test_countermodel_json_report(capsys):
    code = cli([
        "countermodel", str(CORPUS / "cm_no_empty_set.fol"),
        "--max-size", "3", "--report", "json",
    ])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert doc["found"] is True and "model" in doc


def test_model_check_json_report(capsys):
    code = cli([
        "model-check", str(CORPUS / "geometry.model"),
        str(CORPUS / "geometry.formula"), "--report", "json",
    ])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["holds"] is True


@pytest.mark.parametrize("calculus", ["stlc", "dtt"])
def test_huge_numeral_is_refused_before_it_is_built(calculus, tmp_path, capsys):
    path = tmp_path / f"big.{calculus}"
    path.write_text("eval {99999999999999999999}\n")
    start = time.perf_counter()
    code = cli(["check", str(path), "--calculus", calculus])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    out = capsys.readouterr().out
    assert f"error[depth-exceeded] at 1:7: numeral too large: at most {MAX_NUMERAL} is accepted" in out


@pytest.mark.parametrize("calculus", ["stlc", "dtt"])
def test_numerals_up_to_the_limit_are_built(calculus):
    from foundry.surface.parsers import parse_expr

    value = {"stlc": stlc_numeral_value, "dtt": dtt_numeral_value}[calculus]
    assert value(parse_expr(calculus, f"{MAX_NUMERAL}")) == MAX_NUMERAL
    for text in (str(MAX_NUMERAL + 1), "7" * 5000):  # the second has more digits than `int` reads
        with pytest.raises(FoundryError) as err:
            parse_expr(calculus, f"succ {text}", "n")
        assert (err.value.tag, err.value.span[:3]) == ("depth-exceeded", ("n", 1, 6))


FOL_PRELUDE = "sort obj\nrel P : ()\n"
DIGITS = "9" * 5000  # more digits than `int` converts from a string


@pytest.mark.parametrize("calculus, text, col", [
    ("dtt", f"check {{Type {DIGITS}}}\n", 13),
    ("fol", f"{FOL_PRELUDE}theorem t : {{P}} := hilbert {{ ax {DIGITS} {{P}} }}\n", 33),
    ("fol", f"{FOL_PRELUDE}theorem t : {{P}} := hilbert {{ mp 1 {DIGITS} }}\n", 35),
    ("fol", f"{FOL_PRELUDE}theorem t : {{P}} := hilbert {{ all {DIGITS} (x : obj) }}\n", 34),
    ("fol", f"{FOL_PRELUDE}theorem t : {{P}} := hilbert {{ ex {DIGITS} (x) }}\n", 33),
])
def test_an_integer_too_long_to_convert_is_a_parse_error(calculus, text, col, tmp_path, capsys):
    path = tmp_path / f"long.{calculus}"
    path.write_text(text)
    assert cli(["check", str(path), "--calculus", calculus]) == 1
    line = text.count("\n")
    assert f"error[parse-error] at {line}:{col}: integer too long: 5000 digits" in capsys.readouterr().out


def test_integers_that_convert_keep_their_meaning():
    from foundry.dtt import TypeSort
    from foundry.surface.parsers import parse_expr

    assert parse_expr("dtt", "Type 60000") == TypeSort(60000)


def test_deep_input_is_a_tagged_error_not_a_traceback(tmp_path, capsys):
    from foundry.run import run_script_text

    cases = [
        ("eval {400}\n", "Eval"),  # normalize recurses once per succ
        ("expect-error x " * 3000 + "eval {1}\n", "parse"),
    ]
    for text, command in cases:
        report = run_script_text("dtt", text, filename="deep.dtt")
        err = report.first_error()
        assert not report.ok
        assert (err.command, err.tag, err.line, err.col) == (command, "depth-exceeded", 1, 1)
        path = tmp_path / "deep.dtt"
        path.write_text(text)
        assert cli(["check", str(path), "--calculus", "dtt"]) == 1
        assert "error[depth-exceeded] at 1:1" in capsys.readouterr().out
    report = run_script_text("dtt", "expect-error depth-exceeded eval {400}\n")
    assert report.ok and report.results[0].output == "expected error: depth-exceeded"


def fresh_cli(*args):
    """`python -m foundry.cli` in a fresh interpreter, run in the corpus
    directory. Unlike the in-process tests, it sees only the modules the
    command imports itself."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(foundry.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "foundry.cli", *args],
        capture_output=True, text=True, env=env, timeout=60, cwd=CORPUS,
    )


def test_eval_of_a_320_numeral_fits_the_stack(tmp_path):
    # A fresh process, because the test runner's own frames eat the stack.
    path = tmp_path / "n.dtt"
    path.write_text("eval {320}\n")
    done = fresh_cli("eval", str(path), "--calculus", "dtt")
    assert (done.returncode, done.stdout.splitlines()[-1]) == (0, "320"), done.stderr


def test_dtt_check_of_400_nested_funs_fits_the_stack(tmp_path):
    # Inference takes two frames per binder (`_infer` and the rule for the
    # node's class), so about 490 nested funs fit; a third frame per level
    # would stop at 327.
    n = 400
    path = tmp_path / "funs.dtt"
    path.write_text("check {" + "".join(f"fun (x{i} : Nat) => " for i in range(n)) + "x0}\n")
    done = fresh_cli("check", str(path), "--calculus", "dtt")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[0].startswith("[  1] Check: ok -- Nat -> Nat -> ")


def test_a_chain_of_400_stlc_definitions_fits_the_stack(tmp_path):
    # Each definition names the one before, so the last expands to 1,596
    # succs; typing it again at every definition ran out of stack at the
    # 249th, and it is typed once because each closed node keeps its type.
    path = tmp_path / "chain.stlc"
    path.write_text("define d_0 := {0}\n" + "".join(
        f"define d_{i} := {{succ (succ (succ (succ d_{i - 1})))}}\n" for i in range(1, 400)
    ))
    done = fresh_cli("check", str(path), "--calculus", "stlc")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == f"{path}: ok, 0 theorem(s) certified"


@pytest.mark.parametrize("calculus", ["stlc", "dtt"])
@pytest.mark.parametrize("term, value, contractions", [
    ("0", "0", 0),
    ("(fun (x : Nat) => x) 3", "3", 1),
    ("(fun (f : Nat -> Nat) => f 1) (fun (x : Nat) => succ x)", "2", 2),
])
def test_fuel_bounds_the_contractions_of_an_eval(calculus, term, value, contractions, tmp_path, capsys):
    # `--fuel N` allows N beta or iota contractions, in either calculus.
    path = tmp_path / f"fuel.{calculus}"
    path.write_text(f"eval {{{term}}}\n")
    args = ["eval", str(path), "--calculus", calculus, "--fuel"]
    assert cli(args + [str(contractions)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == value
    if contractions:
        assert cli(args + [str(contractions - 1)]) == 1
        assert "[  1] Eval: error[fuel-exhausted] at 1:1" in capsys.readouterr().out


def test_stlc_fun_over_400_succs_fits_the_stack(tmp_path):
    # The parser abstracts x out of the body, and the rebuild costs one
    # frame per level.
    path = tmp_path / "deep.stlc"
    path.write_text("eval {fun (x : Nat) => " + "succ " * 400 + "x}\n")
    done = fresh_cli("eval", str(path), "--calculus", "stlc")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "fun (x : Nat) => " + "succ (" * 399 + "succ x" + ")" * 399


def test_hol_terms_300_deep_fits_the_stack(tmp_path):
    n = 300
    path = tmp_path / "deep.hol"
    path.write_text(
        "thm lams := refl {" + "".join(f"fun (x{i} : Prop) => " for i in range(n)) + "(p : Prop)}\n"
        "thm parens := refl {" + "(" * n + "(p : Prop)" + ")" * n + "}\n"
        "thm inst := inst_term {(x : Prop)} {(y : Prop)} (refl {"
        + "(f : Prop -> Prop) (" * n + "(x : Prop)" + ")" * n + "})\n"
    )
    done = fresh_cli("check", str(path), "--calculus", "hol")
    assert done.returncode == 0, done.stdout + done.stderr
    lams, parens, inst = done.stdout.splitlines()[:3]
    assert lams.startswith("[  1] Thm lams: ok -- |- (fun (x0 : Prop) =>") and lams.count("fun") == 2 * n
    assert parens == "[  2] Thm parens: ok -- |- p = p"
    side = "f (" * (n - 1) + "f y" + ")" * (n - 1)
    assert inst == f"[  3] Thm inst: ok -- |- {side} = {side}"


@pytest.mark.parametrize("name, calculus, value", [
    ("fol_basics.fol", "fol", None),
    ("stlc_basics.stlc", "stlc", "5"),
    ("connectives.hol", "hol", None),
    ("nat_arith.dtt", "dtt", "12"),
])
def test_eval_in_a_fresh_process(name, calculus, value):
    done = fresh_cli("eval", name, "--calculus", calculus)
    report = (CORPUS / (name + ".expected")).read_text()
    if value is None:  # FOL and HOL scripts have no eval command
        assert (done.returncode, done.stdout) == (2, report)
        assert done.stderr == "error: no eval command in the file\n"
    else:
        assert (done.returncode, done.stdout, done.stderr) == (0, f"{report}{value}\n", "")


@pytest.mark.parametrize("args, code, out", [
    (["cc", "cc_valid.fol"], 0, "cc_valid.fol: valid\n"),
    (["cc", "cc_notentailed.fol"], 1,
     "cc_notentailed.fol: not-entailed; subterm partition:\n  { a, f(f(a)) }\n  { f(a) }\n"),
    (["countermodel", "cm_no_empty_set.fol", "--max-size", "3", "--report", "json"], 1,
     json.dumps({"file": "cm_no_empty_set.fol", "found": True, "max_size": 3, "model": {
         "functions": {}, "relations": {"in": ["0,0"]}, "universes": {"set": ["0"]},
     }}, sort_keys=True, indent=2) + "\n"),
    (["model-check", "geometry.model", "geometry.formula"], 0,
     "geometry.formula: holds in geometry.model\n"),
])
def test_problem_commands_in_a_fresh_process(args, code, out):
    done = fresh_cli(*args)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")


def test_non_decimal_digits_are_parse_errors_not_tracebacks(tmp_path, capsys):
    cases = [
        ("dtt", "eval {²}\n", "1:7"),
        ("dtt", "check {Type ²}\n", "1:13"),
        ("stlc", "eval {²}\n", "1:7"),
        ("fol", "rel P : ()\ntheorem t : {P -> P} := hilbert {\n  ax 1 {P} {P} ;\n  mp 1 ²\n}\n", "4:8"),
    ]
    for calculus, text, where in cases:
        path = tmp_path / f"digits.{calculus}"
        path.write_text(text)
        assert cli(["check", str(path), "--calculus", calculus]) == 1
        out = capsys.readouterr().out
        assert f"error[parse-error] at {where}: unexpected character '²'" in out
    path = tmp_path / "arabic.dtt"
    path.write_text("eval {٣}\n")  # a decimal digit, which int() reads
    assert cli(["eval", str(path), "--calculus", "dtt"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3"


def test_malformed_rule_arguments_exit_1_without_traceback(tmp_path, capsys):
    for text in ["thm a := abs {(x : Prop)}\n", "thm a := inst_type 'a (refl {(x : 'a)})\n"]:
        path = tmp_path / "bad.hol"
        path.write_text(text)
        assert cli(["check", str(path), "--calculus", "hol"]) == 1
        captured = capsys.readouterr()
        assert "error[script-error]" in captured.out
        assert "Traceback" not in captured.out + captured.err


def test_quantifier_rules_report_mistyped_terms_by_name(tmp_path, capsys):
    defs = "".join(
        line + "\n" for line in (CORPUS / "connectives.hol").read_text().splitlines()
        if line.startswith("define ")
    )
    cases = [
        ("spec {(y : Ind)} (assume {forall (fun (x : Prop) => x)})",
         "SPEC: the term has type Ind, but the quantifier ranges over Prop"),
        ("contr {(y : Ind)} (assume {false})",
         "CONTR: the term has type Ind, but the conclusion must have type Prop"),
        ("exists_intro {exists (fun (x : Prop) => x)} {(y : Ind)} (assume {(y : Ind) = (y : Ind)})",
         "EXISTS: the witness has type Ind, but the quantifier ranges over Prop"),
    ]
    for proof, message in cases:
        path = tmp_path / "mistyped.hol"
        path.write_text(defs + f"thm t := {proof}\n")
        assert cli(["check", str(path), "--calculus", "hol"]) == 1
        captured = capsys.readouterr()
        assert f"error[kernel-error] at 9:1: {message}\n" in captured.out
        assert "Traceback" not in captured.out + captured.err


PROBLEM_HEAD = "sort obj\nconst a : obj\nconst b : obj\nfn f : (obj) -> obj\nrel A : ()\n"
MODEL = "model m {\n  sort obj = { p }\n  fn a = { () -> p }\n  fn b = { () -> p }\n" \
    "  fn f = { (p) -> p }\n  rel A = { () }\n}\n"


def _problem_run(tmp_path, capsys, subcommand, text, formula=None):
    path = tmp_path / "problem.fol"
    path.write_text(text)
    argv = [subcommand, str(path)]
    if formula is not None:
        formula_path = tmp_path / "formula.fol"
        formula_path.write_text(formula)
        argv.append(str(formula_path))
    code = cli(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return code, captured.err, path


def test_problem_files_reject_trailing_input(tmp_path, capsys):
    text = PROBLEM_HEAD + "prove {a = b garbage junk}\n"
    for subcommand in ("cc", "countermodel"):
        code, err, path = _problem_run(tmp_path, capsys, subcommand, text)
        assert code == 1
        assert f"error[parse-error] at {path}:6:14: trailing input in formula" in err
    code, err, _ = _problem_run(
        tmp_path, capsys, "model-check", PROBLEM_HEAD + MODEL, formula="a = b junk\n"
    )
    assert code == 1 and "formula.fol:1:7: trailing input in formula" in err


def test_problem_files_keep_the_command_whitelist(tmp_path, capsys):
    code, err, path = _problem_run(tmp_path, capsys, "cc", PROBLEM_HEAD + "check {a = b}\n")
    assert code == 1
    assert f"error[usage] at {path}:6:1: command Check is not valid in a problem file" in err


def test_problem_commands_on_deep_input_report_depth_exceeded(tmp_path, capsys):
    deep_not = PROBLEM_HEAD + "prove { " + "~" * 3000 + "A }\n"
    deep_term = "f(" * 500 + "a" + ")" * 500
    cases = [
        ("cc", deep_not, None),
        ("countermodel", deep_not, None),
        ("model-check", deep_not + MODEL, "A\n"),
        ("cc", PROBLEM_HEAD + f"prove {{ {deep_term} = a }}\n", None),
        ("countermodel", PROBLEM_HEAD + f"prove {{ {deep_term} = a }}\n", None),
        ("cc", "expect-error x " * 3000 + "sort obj\n", None),
        ("model-check", PROBLEM_HEAD + MODEL, "(" * 3000 + "A" + ")" * 3000 + "\n"),
        ("model-check", PROBLEM_HEAD + MODEL, "~" * 3000 + "A\n"),
    ]
    for subcommand, text, formula in cases:
        code, err, _ = _problem_run(tmp_path, capsys, subcommand, text, formula)
        assert code == 1
        assert "error[depth-exceeded]" in err


TRUE_DEF = "define true := {(fun (p : Prop) => p) = (fun (p : Prop) => p)}\n"


@pytest.mark.parametrize("calculus, text", [
    ("fol", "sort obj\nrel A : ()\ndefine rel P (x : obj) := {A /\\ x = x ) ) junk}\n"),
    ("fol", "sort obj\nrel A : ()\ntheorem t : {A -> A} := nd { impI {A} (hyp {A}) trailing stuff here }\n"),
    ("hol", TRUE_DEF + "check {true} : {Prop junk}\n"),
    ("hol", "thm r := refl {(x : Prop) = (x : Prop) = (y : Prop)}\n"),
])
def test_every_block_must_parse_to_its_end(tmp_path, capsys, calculus, text):
    path = tmp_path / f"trailing.{calculus}"
    path.write_text(text)
    assert cli(["check", str(path), "--calculus", calculus]) == 1
    assert re.search(r"error\[parse-error\] at \d+:\d+: trailing input in ", capsys.readouterr().out)


def test_a_chain_of_400_stlc_fun_definitions_checks(tmp_path):
    # Each `fun` body names the definition before; abstracting `x` out of it
    # shares that definition instead of copying it, so the chain is linear
    # and each definition keeps the type it was checked at.
    path = tmp_path / "funs.stlc"
    path.write_text("define d_0 := {fun (x : Nat) => x}\n" + "".join(
        f"define d_{i} := {{fun (x : Nat) => succ (d_{i - 1} x)}}\n" for i in range(1, 400)
    ))
    done = fresh_cli("check", str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == f"{path}: ok, 0 theorem(s) certified"


def test_the_extension_names_the_calculus(tmp_path, capsys):
    assert cli(["eval", str(CORPUS / "nat_arith.dtt")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "12"
    path = tmp_path / "nat_arith.txt"
    path.write_text((CORPUS / "nat_arith.dtt").read_text())
    for subcommand in ("check", "eval"):
        assert cli([subcommand, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot tell the calculus of {path} from its extension: give --calculus\n"
    assert cli(["eval", str(path), "--calculus", "dtt"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "12"
    # every entry point that takes a calculus name refuses an unknown one
    # alike; `fol-term` and `stlc-type` are no calculi, and `hol-type` has no
    # runner
    for name, call in (
        ("txt", lambda: run_script_text("txt", "eval {0}\n")),
        ("txt", lambda: parse_expr("txt", "0")),
        ("txt", lambda: pretty("txt", None)),
        ("fol-term", lambda: parse_expr("fol-term", "x")),
        ("fol-term", lambda: pretty("fol-term", None)),
        ("stlc-type", lambda: parse_expr("stlc-type", "Nat")),
        ("stlc-type", lambda: pretty("stlc-type", None)),
        ("hol-type", lambda: run_script_text("hol-type", "")),
    ):
        with pytest.raises(FoundryError) as e:
            call()
        assert type(e.value) is FoundryError and e.value.tag == "usage"
        assert e.value.message == f"unknown calculus {name!r}"


def test_a_calculus_flag_wins_over_the_extension(tmp_path, capsys):
    path = tmp_path / "identity.dtt"
    path.write_text("eval {(fun (x : Bool) => x) true}\n")
    assert cli(["eval", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "true"
    assert cli(["eval", str(path), "--calculus", "stlc"]) == 1  # STLC spells it `tt`
    assert "[  1] Eval: error[type-error] at 1:1: unbound variable true\n" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["countermodel", "cm_two_elements.fol", "--max-size", "0"],
    ["countermodel", "cm_two_elements.fol", "--max-size", "-3"],
    ["eval", "nat_arith.dtt", "--fuel", "-1"],
    ["check", "nat_arith.dtt", "--fuel", "ten"],
])
def test_out_of_range_flag_values_are_usage_errors(args, capsys):
    args[1] = str(CORPUS / args[1])
    assert cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: argument {args[2]}: " in captured.err


@pytest.mark.parametrize("subcommand, text, formula, error", [
    ("cc", PROBLEM_HEAD + "assume {x = a}\nprove {a = b}\n", None,
     "error[theory-error] at {path}:6:1: axiom assumption_1 is not a sentence"),
    ("cc", PROBLEM_HEAD + "assume {A}\nprove {a = b}\n", None,
     "error[non-ground] at {path}:6:9: cc assumptions must be equations"),
    ("cc", PROBLEM_HEAD + "assume {a = b}\nprove {A}\n", None,
     "error[non-ground] at {path}:7:8: cc goal must be an equation"),
    ("cc", PROBLEM_HEAD + "assume {a = b}\nprove {f(x) = b}\n", None,
     "error[non-ground] at {path}:7:10: congruence closure needs ground terms, got x"),
    # an atom under a binder keeps its span
    ("countermodel", PROBLEM_HEAD + "prove {forall x : obj, A(x)}\n", None,
     "error[sort-error] at {path}:6:24: arity mismatch: A expects 0 argument(s), got 1"),
    ("model-check", PROBLEM_HEAD + MODEL, "forall x : obj, A(x)\n",
     "error[sort-error] at {formula}:1:17: arity mismatch: A expects 0 argument(s), got 1"),
], ids=["assumption-sentence", "assumption-equation", "goal-equation", "ground-term",
        "goal-sorts", "formula-sorts"])
def test_problem_file_errors_name_a_location(subcommand, text, formula, error, tmp_path, capsys):
    code, err, path = _problem_run(tmp_path, capsys, subcommand, text, formula)
    assert code == 1
    assert err == error.format(path=path, formula=tmp_path / "formula.fol") + "\n"


def test_a_sort_error_under_a_binder_names_the_bound_variable(tmp_path, capsys):
    text = "sort obj\nfn f : (obj) -> obj\nprove {forall x : obj, f(x, x) = x}\n"
    code, err, path = _problem_run(tmp_path, capsys, "countermodel", text)
    assert code == 1
    assert err == (
        f"error[sort-error] at {path}:3:24: arity mismatch in f(x, x): "
        "f expects 1 argument(s), got 2\n"
    )


@pytest.mark.parametrize("name, code, value", [
    ("nat_arith.dtt", 0, "12"),
    ("stlc_basics.stlc", 0, "5"),
    ("connectives.hol", 2, None),  # no eval command: the report, then a usage error
    ("girard.dtt", 1, None),
])
def test_an_eval_json_report_is_one_document(name, code, value, capsys):
    assert cli(["eval", str(CORPUS / name), "--report", "json"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc.get("value") == value
    assert doc["ok"] == (code != 1)
