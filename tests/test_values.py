"""The immutable value classes of the package, all on `dehn._value.Value`."""

import copy
import importlib
import json
import pickle
import pkgutil
from fractions import Fraction

import pytest

import dehn
from conftest import FIG8_KINKED, TREFOIL, replaced, torus_pd
from dehn._value import Value, _set
from dehn.cli import _Parser
from dehn.dehngraph import DehnGraph
from dehn.diagram import wirtinger
from dehn.errors import DehnError
from dehn.invariants import DefectValue, TorsionValue
from dehn.pipeline import run_pipeline


def knot_values(text: str = TREFOIL) -> dict:
    """One instance of each value class, from a fresh run of `text`, the
    trefoil by default. Reading `tor.raw` and `propagator.g2` fills their
    cached Q(t) forms, so the run's copies and pickles carry them."""
    run = run_pipeline(text)
    diagram = run.graph.diagram
    values = [diagram.pd, diagram, wirtinger(diagram), run.graph.edges[0].label,
              run.graph.edges[0], run.graph, run.propagator.complex, run.propagator,
              run.tor, run.d, run.alexander, run, run.alexander.poly, run.tor.raw,
              run.propagator.g2, run.rep]
    return {type(v).__name__: v for v in values}


CLASSES = sorted(knot_values())
# Every class but the three whose constructors normalize their arguments
# stores its fields as given.
FIELD_BUILT = [name for name in CLASSES
               if name not in {"Polynomial", "RatFunc", "FieldMatrix"}]
# The knots whose values `test_every_field_is_immutable` and
# `test_no_value_holds_a_fact_twice` walk: one with a kink, whose region
# meets a crossing twice, and one with seven crossings.
WALKED = {"3_1": TREFOIL, "4_1-kinked": FIG8_KINKED, "T(2,7)": torus_pd(7)}
# The types a value may hold besides tuples and other values.
IMMUTABLE_LEAVES = (int, str, Fraction, type(None))


def mutable_parts(value, path: str):
    """'path: type' for every part of `value`, walked through the fields of
    values and the items of tuples, that is not one of the immutable leaf
    types: a list, dict, set or bytearray, say."""
    if isinstance(value, Value):
        for f, v in zip(value._fields, value._values()):
            yield from mutable_parts(v, f"{path}.{f}")
    elif isinstance(value, tuple):
        for i, v in enumerate(value):
            yield from mutable_parts(v, f"{path}[{i}]")
    elif not isinstance(value, IMMUTABLE_LEAVES):
        yield f"{path}: {type(value).__name__}"


def test_every_value_class_is_covered():
    for info in pkgutil.iter_modules(dehn.__path__):
        module = importlib.import_module(f"dehn.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                assert issubclass(obj, (Value, DehnError)) or obj is _Parser, obj
    assert sorted(cls.__name__ for cls in Value.__subclasses__()) == CLASSES


@pytest.mark.parametrize("name", CLASSES)
def test_value_class(name):
    value = knot_values()[name]
    cls, fields = type(value), type(value)._fields
    args = [getattr(value, f) for f in fields]

    with pytest.raises(AttributeError):
        setattr(value, fields[0], args[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, fields[0])

    want = hash(value)
    for same in (cls(*args), copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert same == value and not same != value
        assert hash(same) == want

    for f in fields:
        changed = copy.copy(value)
        _set(changed, f, object())
        assert changed != value

    assert repr(value) == "%s(%s)" % (name, ", ".join(f"{f}={v!r}" for f, v in zip(fields, args)))
    assert value != object() and value != tuple(args)

    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    with pytest.raises(TypeError):
        cls(*args, args[0])
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})


@pytest.mark.parametrize("name", FIELD_BUILT)
def test_field_constructor(name):
    value = knot_values()[name]
    cls, fields = type(value), type(value)._fields
    args = [getattr(value, f) for f in fields]

    for i in range(len(fields)):
        changed = list(args)
        changed[i] = object()
        assert cls(*changed) != value

    # Every field is given, positionally: no keyword, and no default.
    with pytest.raises(TypeError):
        cls(**dict(zip(fields, args)))
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], args[1:])))


def values_in(value):
    """Every `Value` reachable from `value`, itself included, through the
    fields of values and the items of tuples."""
    if isinstance(value, Value):
        yield value
        for v in value._values():
            yield from values_in(v)
    elif isinstance(value, tuple):
        for v in value:
            yield from values_in(v)


def facts_held_twice(value, path: str):
    """'path: f and g' for every pair of fields f, g of `value`, or of a value
    inside it, walked through fields and tuple items, from both of which one
    `Value` instance is reachable. Instances are compared by identity, and
    only values count, so shared small ints and empty tuples do not."""
    if isinstance(value, Value):
        fields = list(zip(value._fields, value._values()))
        held = [(f, {id(x) for x in values_in(v)}) for f, v in fields]
        for i, (f, ids) in enumerate(held):
            yield from (f"{path}: {f} and {g}" for g, other in held[i + 1:] if ids & other)
        for f, v in fields:
            yield from facts_held_twice(v, f"{path}.{f}")
    elif isinstance(value, tuple):
        for i, v in enumerate(value):
            yield from facts_held_twice(v, f"{path}[{i}]")


@pytest.mark.parametrize("name", CLASSES)
def test_every_field_is_immutable(name):
    # No field holds a list, dict, set or bytearray, however deep; so every
    # value hashes and none can be edited in place.
    for knot, text in WALKED.items():
        value = knot_values(text)[name]
        assert list(mutable_parts(value, name)) == [], knot
        assert hash(value) == hash(copy.copy(value)), knot


@pytest.mark.parametrize("part", [[1], {1: 2}, {1}, bytearray(b"1")],
                         ids=["list", "dict", "set", "bytearray"])
def test_the_walk_finds_a_mutable_part(part):
    value = knot_values()["KnotDiagram"]
    corners = value.regions[0]
    deep = replaced(value, regions=((corners[0], (0, part)),) + value.regions[1:])
    assert list(mutable_parts(deep, "KnotDiagram")) == [
        f"KnotDiagram.regions[0][1][1]: {type(part).__name__}"]


@pytest.mark.parametrize("name", CLASSES)
def test_no_value_holds_a_fact_twice(name):
    # A value reachable from two fields of one value is a fact held twice:
    # the run reads its diagram through `graph` and its complex through
    # `propagator`, and holds neither beside them.
    for knot, text in WALKED.items():
        assert list(facts_held_twice(knot_values(text)[name], name)) == [], knot


def test_the_walk_finds_a_value_held_twice():
    graph = knot_values()["DehnGraph"]
    pd = graph.diagram.pd
    twice = DehnGraph(graph.diagram, graph.d1, ((), (pd,)))
    assert list(facts_held_twice(twice, "DehnGraph")) == ["DehnGraph: diagram and d2"]
    run = replaced(knot_values()["PipelineRun"], graph=twice)
    assert list(facts_held_twice(run, "PipelineRun")) == ["PipelineRun.graph: diagram and d2"]
    # An equal copy is another instance, and the small ints and empty
    # tuples that every field shares are no values.
    once = DehnGraph(graph.diagram, graph.d1, ((), (copy.copy(pd),)))
    assert list(facts_held_twice(once, "DehnGraph")) == []


def test_equal_runs_hash_equal_and_hold_no_editable_field():
    run, again = run_pipeline(TREFOIL), run_pipeline(TREFOIL)
    assert run == again and hash(run) == hash(again)
    diagram = run.graph.diagram
    fields = (diagram.corner_region[0], diagram.arc_of_edge, diagram.edge_tail,
              run.graph.d1, run.graph.d2)
    for field in fields:
        with pytest.raises(TypeError):
            field[0] = 9


def test_a_used_run_copies_and_pickles():
    """A run whose JSON and G2 were read holds cached Polynomial, RatFunc and
    FieldMatrix values; its copy and its unpickled form equal it, and the
    unpickled run writes the same JSON."""
    run = run_pipeline(TREFOIL)
    want = json.dumps(run.to_json_dict())
    g2 = run.propagator.g2
    for value in (run, run.tor, run.tor.raw, run.alexander.poly, g2):
        assert copy.copy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    assert json.dumps(pickle.loads(pickle.dumps(run)).to_json_dict()) == want


def test_cached_properties_are_read_once():
    value = knot_values()["TorsionValue"]
    assert value.raw is value.raw
    assert value.normalized is value.normalized
    assert copy.copy(value) == value  # the cached forms are not fields


def test_equal_pairs_of_different_classes_differ():
    assert TorsionValue((1,), (1,)) != DefectValue((1,), (1,))
