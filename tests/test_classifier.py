import pytest

from synthlia.classify import (
    IOExamples,
    NonSingleInvocation,
    NotTransformable,
    SingleInvocation,
    WrongClass,
    classify,
    to_first_order,
    to_single_invocation,
)
from synthlia.problem import SynthFun, SynthProblem
from synthlia.rewrite import canonical_key
from synthlia.terms import (
    FunSort,
    IntConst,
    UFApp,
    free_vars,
    and_,
    eq,
    implies,
    uf_apps,
)

from helpers import ge, ivar, load_golden

x, y, z = ivar("x"), ivar("y"), ivar("z")
F2 = FunSort(("Int", "Int"), "Int")
F1 = FunSort(("Int",), "Int")


def fxy(a, b):
    return UFApp("f", F2, (a, b))


def test_classify_single_invocation():
    p = load_golden("between.sy")
    assert isinstance(classify(p), SingleInvocation)


def test_classify_io_examples():
    p = load_golden("io_points.sy")
    cls = classify(p)
    assert isinstance(cls, IOExamples)
    assert cls.points == (((1, 0), (1,)), ((2, 1), (3,)), ((7, 1), (8,)))


def test_classify_unary_io_examples():
    p = load_golden("successor_points.sy")
    cls = classify(p)
    assert isinstance(cls, IOExamples)
    assert cls.points == (((1,), (2,)), ((2,), (3,)), ((7,), (8,)))


def test_classify_non_single_invocation():
    p = load_golden("max_sym.sy")  # f(x,y) and f(y,x) both occur
    assert isinstance(classify(p), NonSingleInvocation)


def test_repeated_argument_is_not_single_invocation():
    p = SynthProblem(
        functions=(SynthFun("f", F2, ("a", "b")),),
        universals=(x,),
        constraint=ge(fxy(x, x), x))
    assert isinstance(classify(p), NonSingleInvocation)


def test_to_first_order_shape():
    p = load_golden("between.sy")
    fo = to_first_order(p)
    assert len(fo.instvars) == 1
    k = fo.instvars[0]
    assert k.sort == "Int"
    assert not uf_apps(fo.pos_body)
    names = {v.name for v in free_vars(fo.pos_body)}
    assert k.name in names and "x" in names and "y" in names


def test_aux_variable_elimination():
    p = load_golden("max_aux.sy")
    q = to_single_invocation(p)
    assert isinstance(classify(q), SingleInvocation)
    assert set(q.universals) == {x, y}
    want = and_(implies(ge(x, y), eq(fxy(x, y), x)),
                implies(ge(y, x), eq(fxy(x, y), y)))
    assert canonical_key(q.constraint) == canonical_key(want)


def test_ground_invocation_lifting():
    p = SynthProblem(
        functions=(SynthFun("f", F1, ("a",)),),
        universals=(),
        constraint=and_(eq(UFApp("f", F1, (IntConst(0),)), IntConst(1)),
                        eq(UFApp("f", F1, (IntConst(1),)), IntConst(5))))
    assert isinstance(classify(p), NonSingleInvocation)
    q = to_single_invocation(p)
    cls = classify(q)
    assert isinstance(cls, IOExamples)
    assert cls.points == (((0,), (1,)), ((1,), (5,)))


def test_not_transformable():
    p = load_golden("max_sym.sy")
    with pytest.raises(NotTransformable):
        to_single_invocation(p)


def test_single_invocation_passthrough():
    p = load_golden("between.sy")
    assert to_single_invocation(p) is p


def test_to_first_order_rejects_non_single_invocation():
    with pytest.raises(WrongClass):
        to_first_order(load_golden("max_sym.sy"))
