"""The value-record contract of the public value classes.

Every value class is built from its fields alone: equal fields make equal
objects with equal hashes, fields cannot be rebound or deleted, the repr
lists the fields, and pickle and copy give equal objects back.
``SweepResult`` holds a list, so it compares by value but has no hash.
"""

import copy
import math
import pickle

import pytest

from levelcross import (
    ApproxResult,
    CrossingQuery,
    Erlang,
    ExpExpModel,
    Exponential,
    Mix2Exp,
    ModelConstants,
    MomentSet,
    Pareto,
    SimEstimate,
    SweepGrid,
    SweepResult,
)

# (class, positional arguments, other arguments, repr, argument tuples that fail validation)
CASES = [
    (MomentSet, (1.0, 2.0, 3.0), (1.0, 2.0, 4.0),
     "MomentSet(mean=1.0, variance=2.0, central3=3.0)", None),
    (Exponential, (2.0,), (3.0,), "Exponential(rate=2.0)", [(0.0,)]),
    (Mix2Exp, (1.0, 3.0, 0.5), (1.0, 3.0, 0.25),
     "Mix2Exp(rate1=1.0, rate2=3.0, p=0.5)", [(3.0, 1.0, 0.5)]),
    (Erlang, (1.2, 2), (1.2, 3), "Erlang(rate=1.2, shape=2)", [(1.0, 0)]),
    (Pareto, (4.0, 0.35), (4.0, 0.4), "Pareto(shape=4.0, scale=0.35)", [(4.0, math.inf)]),
    (ModelConstants, (1.0, 2.0, 1.0, 0.25, 0.5), (1.0, 2.0, 1.0, 0.25, 0.75),
     "ModelConstants(M=1.0, D2=2.0, c_star=1.0, kf_coeff=0.25, ks_coeff=0.5)", None),
    (CrossingQuery, (10.0, 1.0), (10.0, 1.5),
     "CrossingQuery(u=10.0, c=1.0, v=0.0, t=inf)", [(10.0, 1.0, 5.0, 5.0)]),
    (ApproxResult, (0.5, -0.1, 0.2, 0.45), (0.5, -0.1, 0.2, 0.5),
     "ApproxResult(main=0.5, correction_f=-0.1, correction_s=0.2, corrected=0.45)", None),
    (ExpExpModel, (1.0, 2.0), (2.0, 1.0), "ExpExpModel(lam=1.0, mu=2.0)",
     [(0.0, 1.0), (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)]),
    (SimEstimate, (0.5, 100, 0.4, 0.6, 7, 50), (0.5, 100, 0.4, 0.6, 8, 50),
     "SimEstimate(estimate=0.5, trials=100, ci_low=0.4, ci_high=0.6, seed=7, successes=50)",
     None),
    (SweepGrid, (0.5, 2.0, 0.5), (0.5, 2.0, 0.25),
     "SweepGrid(c_min=0.5, c_max=2.0, delta_c=0.5, refinements=())", [(0.5, 2.0, 0.0)]),
    (SweepResult, ("c", ("main",), []), ("t", ("main",), []),
     "SweepResult(var='c', methods=('main',), rows=[])", None),
]

FIELDS = {
    MomentSet: ("mean", "variance", "central3"),
    Exponential: ("rate",),
    Mix2Exp: ("rate1", "rate2", "p"),
    Erlang: ("rate", "shape"),
    Pareto: ("shape", "scale"),
    ModelConstants: ("M", "D2", "c_star", "kf_coeff", "ks_coeff"),
    CrossingQuery: ("u", "c", "v", "t"),
    ApproxResult: ("main", "correction_f", "correction_s", "corrected"),
    ExpExpModel: ("lam", "mu"),
    SimEstimate: ("estimate", "trials", "ci_low", "ci_high", "seed", "successes"),
    SweepGrid: ("c_min", "c_max", "delta_c", "refinements"),
    SweepResult: ("var", "methods", "rows"),
}

FROZEN = [case for case in CASES if case[0] is not SweepResult]


def ids(case):
    return case[0].__name__


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_equality_and_hash(case):
    cls, args, other, _, _ = case
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert a != cls(*other)
    assert a != args and a != object()
    if cls is SweepResult:
        with pytest.raises(TypeError):
            hash(a)  # the rows list is unhashable
    else:
        assert hash(a) == hash(b)
        assert len({a, b, cls(*other)}) == 2


def test_classes_with_equal_fields_differ():
    assert Exponential(1.0) != Erlang(1.0, 1)
    assert Erlang(1.0, 1) != Exponential(1.0)
    assert MomentSet(1.0, 2.0, 3.0) != (1.0, 2.0, 3.0)


@pytest.mark.parametrize("case", FROZEN, ids=ids)
def test_fields_cannot_be_rebound_or_deleted(case):
    cls, args, other, _, _ = case
    obj = cls(*args)
    name = FIELDS[cls][0]
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(cls(*other), name))
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == cls(*args)


def test_sweep_result_fields_cannot_be_rebound():
    result = SweepResult("c", ("main",), [])
    with pytest.raises(AttributeError):
        result.rows = []
    with pytest.raises(AttributeError):
        del result.var
    result.rows.append((1.0, {"main": 0.5}))
    assert result.rows == [(1.0, {"main": 0.5})]


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_repr_lists_the_fields(case):
    cls, args, _, expected, _ = case
    assert repr(cls(*args)) == expected


def test_repr_nests():
    result = SweepResult("c", ("sim",), [(1.0, {"sim": SimEstimate(0.5, 2, 0.1, 0.9, 3, 1)})])
    assert repr(result) == (
        "SweepResult(var='c', methods=('sim',), rows=[(1.0, {'sim': SimEstimate("
        "estimate=0.5, trials=2, ci_low=0.1, ci_high=0.9, seed=3, successes=1)})])"
    )


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_pickle_and_copy_round_trip(case):
    cls, args, _, expected, _ = case
    obj = cls(*args)
    for twin in (
        pickle.loads(pickle.dumps(obj)),
        pickle.loads(pickle.dumps(obj, protocol=0)),
        copy.copy(obj),
        copy.deepcopy(obj),
    ):
        assert type(twin) is cls
        assert twin == obj
        assert repr(twin) == expected
    if cls is not SweepResult:
        with pytest.raises(AttributeError):
            setattr(pickle.loads(pickle.dumps(obj)), FIELDS[cls][0], 0)


def test_deepcopy_copies_rows():
    result = SweepResult("c", ("main",), [(1.0, {"main": 0.5})])
    twin = copy.deepcopy(result)
    twin.rows.append((2.0, {"main": 0.25}))
    assert len(result.rows) == 1


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_keyword_construction(case):
    cls, args, _, _, _ = case
    names = FIELDS[cls]
    obj = cls(**dict(zip(names, args)))
    assert obj == cls(*args)
    assert tuple(getattr(obj, name) for name in names[: len(args)]) == args
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, bogus=1)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})  # one field given twice
    with pytest.raises(TypeError):
        cls(*args, *args, *args, *args, *args, *args, *args)  # too many


def test_defaults():
    assert CrossingQuery(10.0, 1.0) == CrossingQuery(10.0, 1.0, 0.0, math.inf)
    assert CrossingQuery(10.0, 1.0, t=5.0) == CrossingQuery(u=10.0, c=1.0, v=0.0, t=5.0)
    assert SweepGrid(0.5, 2.0, 0.5).refinements == ()
    with pytest.raises(TypeError, match="missing argument 'rows'"):
        SweepResult("c", ("main",))


@pytest.mark.parametrize("case", [c for c in CASES if c[4] is not None], ids=ids)
def test_validation(case):
    cls, _, _, _, bad_args = case
    for bad in bad_args:
        with pytest.raises(ValueError):
            cls(*bad)


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_methods_are_shared_not_generated(case):
    import levelcross._record as source

    cls = case[0]
    for method in ("__init__", "__eq__", "__hash__", "__repr__"):
        code = getattr(cls, method).__code__
        assert code.co_filename == source.__file__, (cls, method)
    assert cls.__eq__ is source._eq and cls.__hash__ is source._hash


def test_keyword_order_is_declaration_order():
    query = CrossingQuery(t=5.0, c=1.0, u=10.0)
    assert list(vars(query)) == ["u", "c", "v", "t"]
    assert repr(query) == "CrossingQuery(u=10.0, c=1.0, v=0.0, t=5.0)"
    assert query == CrossingQuery(10.0, 1.0, 0.0, 5.0)
    assert hash(query) == hash(CrossingQuery(10.0, 1.0, 0.0, 5.0))


def test_subclass_validates_by_its_override():
    class ShortHorizon(CrossingQuery):
        def __post_init__(self):
            super().__post_init__()
            if self.t > 100.0:
                raise ValueError("horizon beyond 100")

    assert ShortHorizon(10.0, 1.0, 0.0, 50.0).t == 50.0
    assert ShortHorizon(u=10.0, c=1.0, t=50.0) == ShortHorizon(10.0, 1.0, 0.0, 50.0)
    with pytest.raises(ValueError, match="beyond"):
        ShortHorizon(10.0, 1.0)  # t = inf
    with pytest.raises(ValueError, match="0 <= v < t"):
        ShortHorizon(10.0, 1.0, 60.0, 50.0)  # the base check still runs
    assert ShortHorizon(10.0, 1.0, 0.0, 50.0) != CrossingQuery(10.0, 1.0, 0.0, 50.0)


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_instance_dict_holds_exactly_the_fields(case):
    cls, args, _, _, _ = case
    names = FIELDS[cls]
    obj = cls(*args)
    for twin in (
        obj,
        cls(**dict(zip(names, args))),
        pickle.loads(pickle.dumps(obj)),
        pickle.loads(pickle.dumps(obj, protocol=0)),
        copy.copy(obj),
        copy.deepcopy(obj),
    ):
        assert list(vars(twin)) == list(names)
