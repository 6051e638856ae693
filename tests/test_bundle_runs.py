"""Bundle runs pinned by hash: the intended play of every generator form,
and of the extended forms carried through their transporters, must give the
same traces and allocations as when ``golden/bundle_runs.json`` was written.

Each hash covers the ``Trace.to_json()`` and ``Allocation.to_json()`` of
every run over a fixed list of seeded profiles: all-uniform (every pick a
tie), all agents alike, then random valuations of 1 to 6 segments, some
with zero-density segments.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from cakewalk.engine import Trace, run
from cakewalk.library import generate
from cakewalk.transform import cuts_before_choices_ext, extended_to_bc
from cakewalk.valuation import random_valuation, uniform

FIXTURE = json.loads((Path(__file__).parent / "golden" / "bundle_runs.json").read_text())

FORMS = [("cut-and-choose", "bc", 2), ("cut-and-choose", "gcc", 2),
         ("selfridge-conway", "bc", 3), ("selfridge-conway", "gcc", 3)] + [
    (name, model, n) for name, n in (("dubins-spanier", 2), ("dubins-spanier", 3),
                                     ("dubins-spanier", 4), ("even-paz", 2),
                                     ("even-paz", 4))
    for model in ("gcc", "extbc")]
EXTENDED = [(name, n) for name, model, n in FORMS if model == "extbc"]
CONVERSIONS = {"extended_to_bc": extended_to_bc,
               "cuts_before_choices_ext": cuts_before_choices_ext}


def profiles(agents: int, count: int):
    rng = random.Random(2026)
    out = [[uniform()] * agents]
    alike = random_valuation(rng.randrange(10 ** 9), 3)
    out.append([alike] * agents)
    while len(out) < count:
        out.append([random_valuation(rng.randrange(10 ** 9), 1 + rng.randrange(6))
                    for _ in range(agents)])
    return out


def runs_hash(p, strategies, count: int) -> str:
    digest = hashlib.sha256()
    for vals in profiles(p.agents, count):
        trace, alloc = run(p, strategies, vals)
        digest.update(json.dumps([trace.to_json(), alloc.to_json()]).encode())
    return digest.hexdigest()


def form_key(name, model, n):
    return f"{name} {model} {n}"


@pytest.mark.parametrize("name, model, n", FORMS,
                         ids=[form_key(*form) for form in FORMS])
def test_bundle_runs(name, model, n):
    p, bundle = generate(name, model, n)
    assert (runs_hash(p, bundle.strategies_for(p), FIXTURE["profiles"])
            == FIXTURE["runs"][form_key(name, model, n)])


@pytest.mark.parametrize("op", CONVERSIONS)
@pytest.mark.parametrize("name, n", EXTENDED,
                         ids=[form_key(name, "extbc", n) for name, n in EXTENDED])
def test_transported_bundle_runs(name, n, op):
    p, bundle = generate(name, "extbc", n)
    target, _, transporter = CONVERSIONS[op](p)
    strategies = transporter(bundle.strategies_for(p))
    assert (runs_hash(target, strategies, FIXTURE["transported_profiles"])
            == FIXTURE["transported"][f"{form_key(name, 'extbc', n)} {op}"])


@pytest.mark.parametrize("name, model, n", FORMS,
                         ids=[form_key(*form) for form in FORMS])
def test_bundle_traces_read_back(name, model, n):
    # Every index a bundle plays is an int, so its trace reads back as it was.
    p, bundle = generate(name, model, n)
    for vals in profiles(p.agents, 4):
        trace, _ = run(p, bundle.strategies_for(p), vals)
        assert Trace.from_json(json.loads(json.dumps(trace.to_json()))) == trace
