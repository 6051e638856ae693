"""Golden-file checks: the wire formats must stay byte-stable."""

import json
from pathlib import Path

import pytest

from cakewalk.dsl import parse, print_protocol
from cakewalk.ir import structurally_equal
from cakewalk.jsonio import protocol_from_json, protocol_to_json
from cakewalk.library import generate

from helpers import reconverging_dags

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("cut-and-choose", "bc", 0, "cut_and_choose_bc"),
    ("cut-and-choose", "gcc", 0, "cut_and_choose_gcc"),
    ("selfridge-conway", "bc", 0, "selfridge_conway_bc"),
    ("dubins-spanier", "gcc", 3, "dubins_spanier_gcc_3"),
    ("even-paz", "extbc", 2, "even_paz_extbc_2"),
]


def check_json(protocol, stem):
    emitted = json.dumps(protocol_to_json(protocol), indent=2) + "\n"
    assert emitted == (GOLDEN / f"{stem}.json").read_text()
    loaded = protocol_from_json(json.loads(emitted))
    assert structurally_equal(loaded, protocol)


def check_cake(protocol, stem):
    emitted = print_protocol(protocol)
    assert emitted == (GOLDEN / f"{stem}.cake").read_text()
    loaded, diagnostics = parse(emitted)
    assert loaded is not None, diagnostics
    assert structurally_equal(loaded, protocol)


@pytest.mark.parametrize("name,model,n,stem", CASES)
def test_json_golden(name, model, n, stem):
    check_json(generate(name, model, n)[0], stem)


@pytest.mark.parametrize("name,model,n,stem", CASES)
def test_cake_golden(name, model, n, stem):
    check_cake(generate(name, model, n)[0], stem)


# The first reconverging random DAG (8 nodes; node 4 has two parents).
@pytest.mark.parametrize("check", [check_json, check_cake])
def test_reconverging_dag_golden(check):
    _, dag = next(reconverging_dags())
    check(dag, "reconverging_bcdag")
