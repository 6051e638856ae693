"""Fuzz the JSON readers: every input is read or refused with a ``CakeError``.

Each reader gets arbitrary JSON values and mutations of valid objects (a
value replaced, a key or item deleted, or a value copied from elsewhere in
the object).  A protocol is read by ``protocol_from_json`` and then
validated; valuations by ``valuations_from_json``; a trace by
``Trace.from_json`` and then replayed on cut-and-choose in BC and GCC form.
Whatever they raise must be a ``CakeError``.  The examples are derandomized,
so every run tries the same ones; raise ``max_examples`` locally for a
longer search.
"""

import copy
import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cakewalk.engine import Trace, replay, run
from cakewalk.errors import CakeError
from cakewalk.ir import GccMode, GccTree, validate
from cakewalk.jsonio import protocol_from_json, valuations_from_json, valuations_to_json
from cakewalk.library import gen_cut_and_choose
from cakewalk.valuation import random_valuation, uniform

GOLDEN = Path(__file__).parent / "golden"
PROTOCOLS = [json.loads(path.read_text()) for path in sorted(GOLDEN.glob("*.json"))]
CC_BC, CC_GCC, BUNDLE = gen_cut_and_choose()
VALS = [uniform(), random_valuation(3, 3)]
VALUATIONS = [valuations_to_json(VALS), valuations_to_json(VALS)["valuations"]]
TRACES = [run(p, BUNDLE.strategies_for(p), VALS)[0].to_json() for p in (CC_BC, CC_GCC)]

# Words the readers look for, so that dictionaries hit real keys and values.
WORDS = ["model", "agents", "root", "nodes", "id", "kind", "agent", "piece", "child",
         "children", "branches", "pieces", "assign", "segments", "left", "right",
         "cut", "choose", "leaf", "ifelse", "op", "bc", "gcc", "extbc", "bcdag",
         "origin", "end", "else", "less", "valuations", "breakpoints", "densities",
         "events", "cuts", "type", "node", "index", "position", "branch",
         "0", "1", "1/2", "1/0", "-1/3", "x"]
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(allow_nan=False)
    | st.sampled_from(WORDS) | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(WORDS), kids, max_size=5)),
    max_leaves=12,
)


def _paths(obj, here=()):
    yield here
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, here + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated(draw, bases):
    """A valid object with one to three of its values replaced, deleted or
    copied from elsewhere in it."""
    obj = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))
        path = draw(st.sampled_from(paths))
        action = draw(st.sampled_from(["replace", "delete", "copy"]))
        if action == "copy":
            new = copy.deepcopy(_at(obj, draw(st.sampled_from(paths))))
        else:
            new = draw(json_values)
        if not path:
            obj = new
        elif action == "delete":
            del _at(obj, path[:-1])[path[-1]]
        else:
            _at(obj, path[:-1])[path[-1]] = new
    return obj


def read_or_refuse(read, *args):
    """``read(*args)``, or None when it refuses with a ``CakeError``; any
    other exception fails the test."""
    try:
        return read(*args)
    except CakeError:
        return None


@FUZZ
@given(json_values | mutated(PROTOCOLS))
def test_protocol_reader_and_validator(obj):
    p = read_or_refuse(protocol_from_json, obj)
    if p is None:
        return
    modes = list(GccMode) if isinstance(p, GccTree) else [GccMode.RESTRICTED]
    for mode in modes:
        read_or_refuse(validate, p, mode)


@FUZZ
@given(json_values | mutated(VALUATIONS))
def test_valuations_reader(obj):
    read_or_refuse(valuations_from_json, obj)


@FUZZ
@given(json_values | mutated(TRACES))
@example({"events": [{"type": "cut", "node": 0, "agent": 1, "position": "1/2",
                      "piece": "x"}]})
def test_trace_reader_and_replay(obj):
    trace = read_or_refuse(Trace.from_json, obj)
    if trace is None:
        return
    for p in (CC_BC, CC_GCC):
        read_or_refuse(replay, p, trace)
