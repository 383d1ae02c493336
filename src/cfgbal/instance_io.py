"""Instance files: a structured JSON text format with exact rationals.

Numbers may be written three ways: integers and "p/q" strings parse to
exact Fractions, decimals parse to floats. The writer emits Fractions as
integers or "p/q" strings and floats as shortest-roundtrip decimals, so a
write/read cycle reproduces the instance structurally.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from numbers import Rational

from .distributions import DiscreteDistribution, ValidationError
from .instances import (
    Configuration,
    ConfigInstance,
    RelatedInstance,
    Request,
    RoutingInstance,
    UnrelatedInstance,
)


class ParseError(ValueError):
    """Malformed instance file; the message carries position or field."""


def _encode_num(x):
    if isinstance(x, Rational):
        f = Fraction(x)
        if f.denominator == 1:
            return int(f)
        return f"{f.numerator}/{f.denominator}"
    return float(x)


def _decode_num(x, where):
    if isinstance(x, bool):
        raise ParseError(f"{where}: expected a number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ParseError(f"{where}: non-finite number {x!r}")
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational {x!r}: {exc}") from None
    raise ParseError(f"{where}: expected a number, got {type(x).__name__}")


def _encode_law(law):
    return [[_encode_num(v), _encode_num(p)] for v, p in law.support]


def _decode_law(pairs, where):
    if not isinstance(pairs, list):
        raise ParseError(f"{where}: law must be a list of [value, prob] pairs")
    out = []
    for k, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"{where}[{k}]: expected [value, prob]")
        out.append(
            (
                _decode_num(pair[0], f"{where}[{k}].value"),
                _decode_num(pair[1], f"{where}[{k}].prob"),
            )
        )
    return DiscreteDistribution(out)


def instance_to_dict(inst):
    if isinstance(inst, ConfigInstance):
        return {
            "kind": "config",
            "m": inst.m,
            "requests": [
                {
                    "id": r.id,
                    "configs": [
                        {
                            "multipliers": [_encode_num(a) for a in c.multipliers],
                            "law": _encode_law(c.law),
                        }
                        for c in r.configs
                    ],
                }
                for r in inst.requests
            ],
        }
    if isinstance(inst, UnrelatedInstance):
        return {
            "kind": "unrelated",
            "m": inst.m,
            "jobs": [[_encode_law(law) for law in row] for row in inst.jobs],
        }
    if isinstance(inst, RelatedInstance):
        return {
            "kind": "related",
            "speeds": [_encode_num(s) for s in inst.speeds],
            "jobs": [_encode_law(law) for law in inst.jobs],
        }
    if isinstance(inst, RoutingInstance):
        return {
            "kind": "routing",
            "vertices": inst.vertices,
            "edges": [[t, h, _encode_num(c)] for t, h, c in inst.edges],
            "requests": [[s, t, _encode_law(law)] for s, t, law in inst.requests],
        }
    raise TypeError(f"cannot serialize {type(inst).__name__}")


def instance_from_dict(doc):
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    kind = doc.get("kind")
    try:
        if kind == "config":
            requests = []
            for rd in _field(doc, "requests", list):
                configs = [
                    Configuration(
                        [
                            _decode_num(a, "multipliers")
                            for a in _field(cd, "multipliers", list)
                        ],
                        _decode_law(_field(cd, "law", list), "law"),
                    )
                    for cd in _field(rd, "configs", list)
                ]
                requests.append(Request(_field(rd, "id", int), configs))
            return ConfigInstance(_field(doc, "m", int), requests)
        if kind == "unrelated":
            jobs = []
            for j, row in enumerate(_field(doc, "jobs", list)):
                if not isinstance(row, list):
                    raise ParseError(f"jobs[{j}]: expected a list of per-machine laws")
                jobs.append([_decode_law(law, f"jobs[{j}][{i}]") for i, law in enumerate(row)])
            return UnrelatedInstance(_field(doc, "m", int), jobs)
        if kind == "related":
            speeds = [_decode_num(s, "speeds") for s in _field(doc, "speeds", list)]
            jobs = [
                _decode_law(law, f"jobs[{j}]")
                for j, law in enumerate(_field(doc, "jobs", list))
            ]
            return RelatedInstance(speeds, jobs)
        if kind == "routing":
            edges = [
                (
                    _int_at(e, 0, f"edges[{k}]"),
                    _int_at(e, 1, f"edges[{k}]"),
                    _decode_num(e[2], f"edges[{k}].capacity"),
                )
                for k, e in enumerate(_field(doc, "edges", list))
            ]
            requests = [
                (
                    _int_at(r, 0, f"requests[{k}]"),
                    _int_at(r, 1, f"requests[{k}]"),
                    _decode_law(r[2], f"requests[{k}].law"),
                )
                for k, r in enumerate(_field(doc, "requests", list))
            ]
            return RoutingInstance(_field(doc, "vertices", int), edges, requests)
    except (IndexError, KeyError) as exc:
        raise ParseError(f"malformed instance document: {exc}") from None
    raise ParseError(f"unknown instance kind {kind!r}")


def _field(doc, name, typ):
    if not isinstance(doc, dict):
        raise ParseError(f"expected an object with field {name!r}, got {type(doc).__name__}")
    if name not in doc:
        raise ParseError(f"missing field {name!r}")
    value = doc[name]
    if not isinstance(value, typ) or isinstance(value, bool):
        raise ParseError(f"field {name!r}: expected {typ.__name__}")
    return value


def _int_at(seq, idx, where):
    if not isinstance(seq, list) or len(seq) <= idx:
        raise ParseError(f"{where}: expected a list with >= {idx + 1} entries")
    v = seq[idx]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(f"{where}[{idx}]: expected an integer")
    return v


def dumps_instance(inst):
    return json.dumps(instance_to_dict(inst), indent=1) + "\n"


def loads_instance(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return instance_from_dict(doc)


def write_instance(inst, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))


def read_instance(path):
    with open(path, encoding="utf-8") as fh:
        return loads_instance(fh.read())
