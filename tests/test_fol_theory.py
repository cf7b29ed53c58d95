import pytest

from foundry import fol
from foundry.errors import SortError, TheoryError
from foundry.fol import (
    ADD, MUL, AllE, AllI, AndE1, AndE2, AndI, App, Eq, ExE, ExI, FVar, Hyp,
    ImpE, ImpI, Implies, Rel, Sort, add_skolem_function, alpha_equal,
    builtin_theory, check_nd, decidable_equality, exists, exists_unique,
    extend_by_function, extend_by_relation, forall, instantiate_schema, neg,
    pra_induction_schema, pure_theory, schema_recognizes, separation_schema,
)
from foundry.surface import parse_expr

SET = Sort("set")


def _mem(a, b):
    return Rel("in", (a, b))


def test_extend_by_relation_subset():
    zf = builtin_theory("ZF")
    z, x, w = FVar("z", SET), FVar("x", SET), FVar("w", SET)
    definition = forall(w, Implies(_mem(w, z), _mem(w, x)))
    th = extend_by_relation(zf, "subset", definition, (z, x))
    assert "subset" in th.signature.relations
    assert any(e.kind == "relation-definition" for e in th.definition_log)
    # name clash and stray free variable are rejected
    with pytest.raises(TheoryError):
        extend_by_relation(th, "subset", definition, (z, x))
    with pytest.raises(TheoryError):
        extend_by_relation(zf, "bad", definition, (z,))
    # mentioning the symbol being defined cannot even be well-formed
    with pytest.raises(Exception):
        extend_by_relation(zf, "selfish", Rel("selfish", (z, x)), (z, x))


def test_extend_by_function_identity():
    th = pure_theory(fol.single_sorted("obj"), "classical")
    obj = Sort("obj")
    x, y = FVar("x", obj), FVar("y", obj)
    definition = Eq(y, x)
    statement = forall(x, exists_unique(y, definition))
    # prove forall x. exists! y. y = x by hand
    z = FVar("z", obj)
    refl = fol.EqRefl(x)  # |- x = x
    inner = AndI(
        refl,
        AllI(z, ImpI(Eq(z, x), Hyp(Eq(z, x)))),
    )
    # careful: the uniqueness part wants z = y with y := x, i.e. z = x
    target = exists_unique(y, definition)
    d = AllI(x, ExI(target, x, inner))
    cert = check_nd(th, d)
    assert alpha_equal(cert.conclusion, statement)
    th2 = extend_by_function(th, "id", definition, (x,), y, cert)
    assert th2.signature.functions["id"] == ((obj,), obj)
    ax = th2.axioms["def_id"]
    assert alpha_equal(ax, forall(x, Eq(App("id", (x,)), x)))
    # a certificate proving a different formula is rejected
    with pytest.raises(TheoryError):
        extend_by_function(th, "other", Eq(x, y), (x,), y, cert)
    with pytest.raises(TheoryError):
        extend_by_function(th2, "id", definition, (x,), y, cert)


def _union_uniqueness_cert(zf):
    """Build the ND certificate of forall x. exists! y. A(x, y) where
    A(x, y) says y is the union of x, from Union and Extensionality."""
    x = FVar("x", SET)
    y0 = FVar("y0", SET)
    u = FVar("u", SET)
    z = FVar("z", SET)
    w = FVar("w", SET)

    def body(yv):
        return forall(
            z, fol.iff(_mem(z, yv), exists(w, fol.And(_mem(w, x), _mem(z, w))))
        )

    union_ax = zf.axioms["Union"]
    ext_ax = zf.axioms["Extensionality"]
    target = exists_unique(y0, body(y0))

    # direction lemmas under hypotheses A(x, u) and A(x, y0)
    def dir_proof(src, dst):
        # z in src -> z in dst
        from_src = AndE1(AllE(Hyp(body(src)), z))        # z∈src -> ∃w(...)
        to_dst = AndE2(AllE(Hyp(body(dst)), z))          # ∃w(...) -> z∈dst
        return ImpI(
            _mem(z, src), ImpE(to_dst, ImpE(from_src, Hyp(_mem(z, src))))
        )

    same_elements = AllI(z, AndI(dir_proof(u, y0), dir_proof(y0, u)))
    ext_inst = AllE(AllE(Hyp(ext_ax), u), y0)            # (∀z. z∈u <-> z∈y0) -> u=y0
    eq_uy = ImpE(ext_inst, same_elements)
    uniq = AllI(u, ImpI(body(u), eq_uy))
    pair = AndI(Hyp(body(y0)), uniq)
    intro = ExI(target, y0, pair)
    use_union = ExE(AllE(Hyp(union_ax), x), y0, intro)
    d = AllI(x, use_union)
    return check_nd(zf, d), body


def test_union_definition_over_zf():
    zf = builtin_theory("ZF")
    cert, body = _union_uniqueness_cert(zf)
    x, y = FVar("x", SET), FVar("y", SET)
    z, w = FVar("z", SET), FVar("w", SET)
    definition = forall(
        z, fol.iff(_mem(z, y), exists(w, fol.And(_mem(w, x), _mem(z, w))))
    )
    th = extend_by_function(zf, "union", definition, (x,), y, cert)
    assert "union" in th.signature.functions
    assert "def_union" in th.axioms


def test_skolem_function_modes():
    obj = Sort("obj")
    x, y = FVar("x", obj), FVar("y", obj)
    definition = Eq(y, x)
    for mode in ("classical", "intuitionistic"):
        th = pure_theory(fol.single_sorted("obj"), mode)
        statement = forall(x, exists(y, definition))
        d = AllI(x, ExI(exists(y, definition), x, fol.EqRefl(x)))
        cert = check_nd(th, d)
        if mode == "classical":
            th2 = add_skolem_function(th, "pick", definition, (x,), y, cert)
            assert any(e.detail == "indefinite-description" for e in th2.definition_log)
        else:
            with pytest.raises(TheoryError) as e:
                add_skolem_function(th, "pick", definition, (x,), y, cert)
            assert "decidable" in str(e.value)
            # adding decidable equality makes it acceptable
            th_dec = th.with_axiom("DecEq", decidable_equality(obj))
            cert2 = check_nd(th_dec, d)
            add_skolem_function(th_dec, "pick", definition, (x,), y, cert2)


def test_separation_instantiation_and_errors():
    sep = separation_schema()
    w = FVar("w", SET)
    inst = instantiate_schema(sep, [neg(_mem(w, w))])
    expected = parse_expr(
        "fol",
        "forall y : set, exists z : set, forall w : set,"
        " (in(w, z) <-> in(w, y) /\\ ~in(w, w))",
        signature=builtin_theory("ZF").signature,
    )
    assert alpha_equal(inst, expected)
    assert schema_recognizes(sep, inst)
    z = FVar("z", SET)
    with pytest.raises(TheoryError) as e:
        instantiate_schema(sep, [neg(_mem(w, z))])
    assert "forbidden" in str(e.value)


def test_separation_with_parameters_closes_them():
    sep = separation_schema()
    w, p = FVar("w", SET), FVar("p", SET)
    inst = instantiate_schema(sep, [_mem(w, p)])
    assert fol.is_sentence(inst)
    assert isinstance(inst, fol.Forall)  # the parameter got closed outside
    assert schema_recognizes(sep, inst)


def test_pra_induction_quantifier_free_only():
    ind = pra_induction_schema()
    nat = Sort("nat")
    x = FVar("x", nat)
    qf = Eq(App("plus", (x, App("zero", ()))), x)
    inst = instantiate_schema(ind, [qf])
    assert fol.is_sentence(inst)
    assert schema_recognizes(ind, inst)
    y = FVar("y", nat)
    with pytest.raises(TheoryError) as e:
        instantiate_schema(ind, [exists(y, Eq(x, y))])
    assert "quantifier-free" in str(e.value)


def test_an_open_or_ill_formed_axiom_is_rejected_as_it_enters():
    obj = Sort("obj")
    x = FVar("x", obj)
    sig = fol.single_sorted("obj").with_relation("P", (obj,))
    th = pure_theory(sig)
    for bad, error in ((Rel("P", (x,)), TheoryError), (Rel("Q", ()), SortError)):
        with pytest.raises(error):
            th.with_axiom("a", bad)
        with pytest.raises(error):
            fol.Theory(name="t", signature=sig, axioms={"a": bad})
    with pytest.raises(SortError):
        extend_by_relation(th, "D", Rel("Q", (x,)), (x,))
    assert "a" in th.with_axiom("a", forall(x, Rel("P", (x,)))).axioms


def test_builtin_theories():
    q = builtin_theory("Q")
    assert q.mode == "classical" and len(q.axioms) == 7
    pra = builtin_theory("PRA")
    assert "Induction" in pra.schemas
    zf = builtin_theory("ZF")
    assert set(zf.schemas) == {"Separation", "Replacement"}
    zfc = builtin_theory("ZFC")
    assert "Choice" in zfc.axioms and "Choice" not in zf.axioms
    with pytest.raises(TheoryError):
        builtin_theory("NBG")


def test_zf_infinity_is_the_expanded_display():
    zf = builtin_theory("ZF")
    expected = parse_expr(
        "fol",
        "exists x : set,"
        " (exists z : set, in(z, x) /\\ (forall w : set, ~in(w, z)))"
        " /\\ (forall y : set, in(y, x) ->"
        "      (exists z : set, in(z, x) /\\"
        "        (forall w : set, (in(w, z) <-> in(w, y) \\/ w = y))))",
        signature=zf.signature,
    )
    assert alpha_equal(zf.axioms["Infinity"], expected)


def test_definitional_extension_is_conservative_at_desk_scale():
    # a sequent not mentioning the new symbol stays valid over base models
    obj = Sort("obj")
    sig = fol.single_sorted("obj").with_relation("R", (obj, obj))
    base = pure_theory(sig, "intuitionistic")
    x, y = FVar("x", obj), FVar("y", obj)
    ext = extend_by_relation(base, "sym2", fol.And(Rel("R", (x, y)), Rel("R", (y, x))), (x, y))
    d = ImpI(Rel("R", (x, y)), Hyp(Rel("R", (x, y))))
    cert = check_nd(ext, d)
    for model in fol.all_models(base.signature, 2):
        from helpers import sequent_valid

        assert sequent_valid(model, cert.sequent)
