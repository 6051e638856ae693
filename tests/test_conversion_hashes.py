"""Conversion outputs pinned by hash: ``gcc_to_bc`` and ``extended_to_bc``
must print the same ``.cake`` text and give the same ``NodeMap`` as when
``golden/conversion_hashes.json`` was written.

Each hash covers the printed output protocol and its node map (each source
id with its sorted target ids).  A conversion that refuses its input is
pinned by its error message instead.  The inputs are the library's GCC
protocols in both modes, ``SEEDS`` seeded ``random_gcc`` trees in both
modes, and the library's extended BC protocols.

Run this file as a script to write the fixture again.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from cakewalk.dsl import print_protocol
from cakewalk.errors import CakeError
from cakewalk.ir import GccMode
from cakewalk.library import generate
from cakewalk.transform import extended_to_bc, gcc_to_bc

from helpers import random_gcc

FIXTURE_PATH = Path(__file__).parent / "golden" / "conversion_hashes.json"

GCC_FORMS = [("cut-and-choose", 2), ("selfridge-conway", 3), ("dubins-spanier", 2),
             ("dubins-spanier", 3), ("dubins-spanier", 4), ("even-paz", 2),
             ("even-paz", 4)]
EXT_FORMS = [("dubins-spanier", 2), ("dubins-spanier", 3), ("dubins-spanier", 4),
             ("even-paz", 2), ("even-paz", 4)]
SEEDS = 60


def conversion_hash(convert, *args) -> str:
    """sha256 of the printed output and its node map, or of the error."""
    digest = hashlib.sha256()
    try:
        out, node_map = convert(*args)[:2]
    except CakeError as exc:
        digest.update(f"{type(exc).__name__}: {exc}".encode())
        return digest.hexdigest()
    digest.update(print_protocol(out).encode())
    digest.update(json.dumps(sorted((src, sorted(targets))
                                    for src, targets in node_map.forward.items())).encode())
    return digest.hexdigest()


def gcc_key(name, n, mode):
    return f"{name} gcc {n} {mode.value}"


def random_key(seed, mode):
    return f"random_gcc {seed} {mode.value}"


def random_tree(seed: int):
    return random_gcc(random.Random(seed), 2 + seed % 2, 6 + seed % 9)


def compute() -> dict:
    hashes = {}
    for mode in GccMode:
        for name, n in GCC_FORMS:
            hashes[gcc_key(name, n, mode)] = conversion_hash(
                gcc_to_bc, generate(name, "gcc", n)[0], mode)
        for seed in range(SEEDS):
            hashes[random_key(seed, mode)] = conversion_hash(
                gcc_to_bc, random_tree(seed), mode)
    for name, n in EXT_FORMS:
        hashes[f"{name} extbc {n}"] = conversion_hash(
            extended_to_bc, generate(name, "extbc", n)[0])
    return hashes


FIXTURE = json.loads(FIXTURE_PATH.read_text()) if FIXTURE_PATH.exists() else {}


@pytest.mark.parametrize("mode", list(GccMode), ids=[m.value for m in GccMode])
@pytest.mark.parametrize("name, n", GCC_FORMS, ids=[f"{name} {n}" for name, n in GCC_FORMS])
def test_library_gcc_to_bc(name, n, mode):
    key = gcc_key(name, n, mode)
    assert conversion_hash(gcc_to_bc, generate(name, "gcc", n)[0], mode) == FIXTURE[key]


@pytest.mark.parametrize("mode", list(GccMode), ids=[m.value for m in GccMode])
def test_random_gcc_to_bc(mode):
    for seed in range(SEEDS):
        assert (conversion_hash(gcc_to_bc, random_tree(seed), mode)
                == FIXTURE[random_key(seed, mode)]), seed


@pytest.mark.parametrize("name, n", EXT_FORMS, ids=[f"{name} {n}" for name, n in EXT_FORMS])
def test_library_extended_to_bc(name, n):
    key = f"{name} extbc {n}"
    assert conversion_hash(extended_to_bc, generate(name, "extbc", n)[0]) == FIXTURE[key]


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(compute(), indent=2) + "\n")
