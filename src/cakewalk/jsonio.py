"""JSON wire formats for protocols, valuations, traces, and reports.

Field order is fixed so serialized protocols are byte-stable golden files.
Node ids are renumbered to preorder on write; readers keep the stored ids.

Protocols go through two tables.  ``_MODELS`` maps each model name to its
protocol class and its node kinds (the ``kind`` key) to node classes, and
``_OPS`` maps condition ops to condition classes.  A node is written as its
``id``, its ``kind``, then one key per remaining dataclass field, in field
order; a condition as its ``op`` and then its fields.  ``_WRITE`` and
``_READ`` hold one codec per field name, shared by every class that has the
field; ``child``, ``children`` and ``branches`` nest whole nodes in a tree
and hold node ids in a DAG.  The reader raises ``DomainError`` naming the
node and the field for a missing or mistyped field.
"""

from __future__ import annotations

from .errors import DomainError
from .ir import (
    And, BcChoose, BcCut, BcDag, BcLeaf, BcTree, ChoseAt, CutInAt, CutRef,
    DagChoose, DagCut, DagLeaf, END, Else, ExtBcTree, ExtChoose, ExtCut,
    ExtLeaf, ExtSegment, GccChoose, GccCut, GccIfElse, GccLeaf, GccTree, Less,
    Not, Or, ORIGIN, Protocol, at, renumber,
)
from .valuation import Valuation

_MODELS = {
    "bc": (BcTree, {"cut": BcCut, "choose": BcChoose, "leaf": BcLeaf}),
    "extbc": (ExtBcTree, {"cut": ExtCut, "choose": ExtChoose, "leaf": ExtLeaf}),
    "gcc": (GccTree, {"cut": GccCut, "choose": GccChoose, "ifelse": GccIfElse,
                      "leaf": GccLeaf}),
    "bcdag": (BcDag, {"cut": DagCut, "choose": DagChoose, "leaf": DagLeaf}),
}
_OPS = {"else": Else, "less": Less, "chose-at": ChoseAt, "cut-in-at": CutInAt,
        "and": And, "or": Or, "not": Not}

_MODEL_OF = {cls: model for model, (cls, _) in _MODELS.items()}
_KIND_OF = {cls: kind for _, kinds in _MODELS.values() for kind, cls in kinds.items()}
_OP_OF = {cls: op for op, cls in _OPS.items()}


def _int(v) -> int:
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _list(v) -> list:
    if not isinstance(v, list):
        raise TypeError(f"expected a list, got {v!r}")
    return v


def _ref_json(ref: CutRef):
    return ref.kind if ref.kind != "cut" else {"cut": ref.cut}


def _ref_from(obj) -> CutRef:
    if obj == "origin":
        return ORIGIN
    if obj == "end":
        return END
    if isinstance(obj, dict) and "cut" in obj:
        return at(_int(obj["cut"]))
    raise ValueError(f"malformed cut ref {obj!r}")


def _fields_json(obj, sub) -> dict:
    """The fields of a node (after its id), segment or condition, by name."""
    return {name: _WRITE[name](v, sub) if name in _WRITE else v
            for name, v in obj.__dict__.items() if name != "nid"}


def _cond_json(cond) -> dict:
    return {"op": _OP_OF[type(cond)], **_fields_json(cond, None)}


def _node_json(node, sub) -> dict:
    return {"id": node.nid, "kind": _KIND_OF[type(node)], **_fields_json(node, sub)}


# ``sub`` writes (reads) a child: a nested node in a tree, a node id in a DAG.
# Integer fields (``agent``, ``piece``, ``node``, ``index``) are written as
# they are.
_WRITE = {
    "assign": lambda v, sub: list(v),
    "left": lambda v, sub: _ref_json(v),
    "right": lambda v, sub: _ref_json(v),
    "pieces": lambda v, sub: [{"left": _ref_json(lo), "right": _ref_json(hi)}
                              for lo, hi in v],
    "segments": lambda v, sub: [_fields_json(seg, None) for seg in v],
    "parts": lambda v, sub: [_cond_json(part) for part in v],
    "part": lambda v, sub: _cond_json(v),
    "child": lambda v, sub: sub(v),
    "children": lambda v, sub: [sub(kid) for kid in v],
    "branches": lambda v, sub: [{"condition": _cond_json(cond), "child": sub(kid)}
                                for cond, kid in v],
}

_READ = {
    "agent": lambda v, sub: _int(v),
    "piece": lambda v, sub: _int(v),
    "node": lambda v, sub: _int(v),
    "index": lambda v, sub: _int(v),
    "assign": lambda v, sub: tuple(map(_int, _list(v))),
    "left": lambda v, sub: _ref_from(v),
    "right": lambda v, sub: _ref_from(v),
    "pieces": lambda v, sub: tuple((_ref_from(o["left"]), _ref_from(o["right"]))
                                   for o in _list(v)),
    "segments": lambda v, sub: tuple(ExtSegment(*_fields_from(o, ExtSegment))
                                     for o in _list(v)),
    "parts": lambda v, sub: tuple(map(_cond_from, _list(v))),
    "part": lambda v, sub: _cond_from(v),
    "child": lambda v, sub: sub(v),
    "children": lambda v, sub: tuple(map(sub, _list(v))),
    "branches": lambda v, sub: tuple((_cond_from(o["condition"]), sub(o["child"]))
                                     for o in _list(v)),
}


def _fields_from(obj: dict, cls) -> list:
    """The field values of a segment or condition of class ``cls``."""
    return [_READ[name](obj[name], None) for name in cls.__dataclass_fields__]


def _cond_from(obj):
    cls = _OPS.get(obj["op"])
    if cls is None:
        raise ValueError(f"unknown condition op {obj['op']!r}")
    return cls(*_fields_from(obj, cls))


def _why(exc: Exception) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _node_from(obj: dict, kinds: dict, sub):
    nid = _int(obj["id"])  # a bad id is an error in the field that holds the node
    kind = obj.get("kind")
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DomainError(f"node {nid}: unknown node kind {kind!r}")
    values = []
    for name in list(cls.__dataclass_fields__)[1:]:  # the fields after the id
        if name not in obj:
            raise DomainError(f"node {nid}: missing field {name!r}")
        try:
            values.append(_READ[name](obj[name], sub))
        except (KeyError, TypeError, ValueError) as exc:
            # A nested node raises its own DomainError; this is about this one.
            raise DomainError(f"node {nid}: malformed field {name!r}: {_why(exc)}") from None
    return cls(nid, *values)


def protocol_to_json(p: Protocol) -> dict:
    model = _MODEL_OF.get(type(p))
    if model is None:
        raise DomainError(f"unknown protocol type {type(p).__name__}")
    p, _ = renumber(p)
    if isinstance(p, BcDag):
        nodes = [_node_json(p.nodes[nid], int) for nid in sorted(p.nodes)]
        return {"model": model, "agents": p.agents, "root": p.root, "nodes": nodes}

    def sub(node):
        return _node_json(node, sub)

    return {"model": model, "agents": p.agents, "root": sub(p.root)}


def protocol_from_json(obj: dict) -> Protocol:
    try:
        model, agents = obj["model"], _int(obj["agents"])
        if not isinstance(model, str) or model not in _MODELS:
            raise DomainError(f"unknown protocol model {model!r}")
        cls, kinds = _MODELS[model]
        if cls is BcDag:
            nodes = [_node_from(o, kinds, _int) for o in _list(obj["nodes"])]
            return BcDag(agents, _int(obj["root"]), {n.nid: n for n in nodes})

        def sub(o):
            return _node_from(o, kinds, sub)

        return cls(agents, sub(obj["root"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed protocol object: {_why(exc)}") from None


def valuations_to_json(vals) -> dict:
    return {"valuations": [v.to_json() for v in vals]}


def valuations_from_json(obj) -> list[Valuation]:
    if isinstance(obj, dict):
        obj = obj.get("valuations", [])
    if not isinstance(obj, list):
        raise DomainError("expected a list of valuations")
    return [Valuation.from_json(v) for v in obj]
