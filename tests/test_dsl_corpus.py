"""A seeded corpus of ``.cake`` inputs pinned to the parser's results.

The inputs are the printed text of every library protocol, random protocols
of all four forms and the reconverging random DAGs, each followed by seeded
single character and token mutations of it.  For each input the fixture
``corpus/dsl_corpus.json`` stores what ``parse`` returned: a sha256 of the
printed protocol when the input is accepted, otherwise each diagnostic's
span and message.  So a change to the lowerers that accepts, rejects or
locates an input differently shows up here.  ``RESPELLED`` lists the
messages that may differ from the fixture: failures that the models used to
spell differently, and that one node lowerer now spells once.

Rebuild the fixture (only when a change in results is intended) with::

    PYTHONPATH=src python tests/test_dsl_corpus.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from pathlib import Path

from cakewalk.dsl import parse, print_protocol
from cakewalk.library import generate

from helpers import (
    random_bc_tree, random_dag, random_ext_tree, random_gcc, reconverging_dags,
)

FIXTURE = Path(__file__).parent / "corpus" / "dsl_corpus.json"
MUTATIONS = 55  # per base text

LIBRARY = [
    ("cut-and-choose", "bc", 0), ("cut-and-choose", "gcc", 0),
    ("selfridge-conway", "bc", 0), ("selfridge-conway", "gcc", 0),
    ("dubins-spanier", "gcc", 2), ("dubins-spanier", "gcc", 3),
    ("dubins-spanier", "extbc", 2), ("dubins-spanier", "extbc", 3),
    ("even-paz", "gcc", 2), ("even-paz", "gcc", 4),
    ("even-paz", "extbc", 2), ("even-paz", "extbc", 4),
]

# A recorded message -> the messages that may replace it.
RESPELLED = {
    "cut needs :agent and :piece": {"cut needs :agent", "cut needs :piece"},
    "dag cut needs :agent": {"cut needs :agent"},
    "dag cut needs :piece": {"cut needs :piece"},
    "dag cut needs :child": {"cut needs :child"},
    "dag choose needs :agent": {"choose needs :agent"},
    "dag choose needs children": {"choose needs at least one child"},
}

_TOKEN = re.compile(r"[()]|[^\s();]+")
_CHARS = "()-:>; \n0123456789acegkloprx"
_WORDS = (":agent", ":piece", ":label", ":left", ":right", ":child", ":agents",
          ":mode", "cut", "choose", "leaf", "gcc-cut", "gcc-choose", "gcc-leaf",
          "if", "else", "node", "piece", "->", "origin", "end", "0", "-1", "9")


def base_texts() -> list[str]:
    protocols = [generate(name, model, n)[0] for name, model, n in LIBRARY]
    for seed in range(3):
        protocols += [random_bc_tree(random.Random(seed), 2, 15),
                      random_ext_tree(random.Random(seed), 3, 18),
                      random_gcc(random.Random(seed), 2, 5),
                      random_dag(random.Random(seed), 2, 14)]
    protocols += [dag for _, dag in reconverging_dags()]
    return [print_protocol(p) for p in protocols]


def mutate(text: str, rng: random.Random) -> str:
    """``text`` with one character or token edit."""
    op = rng.randrange(8)
    if op < 3:
        pos = rng.randrange(len(text))
        if op == 0:
            return text[:pos] + text[pos + 1:]
        if op == 1:
            return text[:pos] + rng.choice(_CHARS) + text[pos:]
        return text[:pos] + rng.choice(_CHARS) + text[pos + 1:]
    tokens = [(m.start(), m.end()) for m in _TOKEN.finditer(text)]
    k = rng.randrange(len(tokens) - 1)
    start, end = tokens[k]
    word = text[start:end]
    if op == 3:  # delete a token
        new = ""
    elif op == 4:  # repeat a token
        new = f"{word} {word}"
    elif op == 5:  # swap two adjacent tokens
        nxt_start, nxt_end = tokens[k + 1]
        return (text[:start] + text[nxt_start:nxt_end] + text[end:nxt_start]
                + word + text[nxt_end:])
    elif op == 6:  # another token of the same text
        other = tokens[rng.randrange(len(tokens))]
        new = text[other[0]:other[1]]
    else:  # a keyword, node word, ref or number
        new = rng.choice(_WORDS)
    return text[:start] + new + text[end:]


def corpus() -> list[str]:
    inputs = []
    for i, base in enumerate(base_texts()):
        rng = random.Random(i)
        inputs.append(base)
        inputs += [mutate(base, rng) for _ in range(MUTATIONS)]
    return inputs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result(text: str) -> list:
    """[input digest, printed digest] or [input digest, diagnostics]."""
    p, diagnostics = parse(text)
    if p is not None:
        return [_sha(text)[:12], _sha(print_protocol(p))]
    return [_sha(text)[:12],
            [[d.span.start, d.span.end, d.span.line, d.span.column, d.message]
             for d in diagnostics]]


def same(got, want) -> bool:
    """``got`` matches the recorded ``want``, up to ``RESPELLED`` messages."""
    if isinstance(got, str) or isinstance(want, str) or len(got) != len(want):
        return got == want
    return all(g[:4] == w[:4] and (g[4] == w[4] or g[4] in RESPELLED.get(w[4], ()))
               for g, w in zip(got, want))


def record():
    rows = [json.dumps(result(text)) for text in corpus()]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("[\n" + ",\n".join(rows) + "\n]\n")


def test_corpus_results_are_pinned():
    expected = json.loads(FIXTURE.read_text())
    inputs = corpus()
    assert len(inputs) == len(expected)
    accepted = 0
    for text, (digest, want) in zip(inputs, expected):
        assert _sha(text)[:12] == digest, "the corpus inputs changed"
        got = result(text)[1]
        assert same(got, want), (text, got, want)
        accepted += isinstance(want, str)
    assert accepted >= 100


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
