"""Instance files: a structured JSON text format with exact rationals.

Numbers may be written three ways: integers and "p/q" strings parse to
exact Fractions, decimals parse to floats; each must have a finite float
value. The writer emits Fractions as integers or "p/q" strings and floats
as shortest-roundtrip decimals, so a write/read cycle reproduces the
instance, every number's type included.

The reader checks the types of a whole list of numbers at once and leaves
the range checks to the constructors; only when something fails does it
read the numbers one by one, in document order, for the first offender.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from itertools import chain
from numbers import Rational

from .distributions import CfgbalError, DiscreteDistribution
from .instances import (
    Configuration,
    ConfigInstance,
    RelatedInstance,
    Request,
    RoutingInstance,
    UnrelatedInstance,
)


class ParseError(CfgbalError, ValueError):
    """Malformed instance file; the message carries position or field."""


def _encode_num(x):
    if isinstance(x, Rational):
        f = Fraction(x)
        if f.denominator == 1:
            return int(f)
        return f"{f.numerator}/{f.denominator}"
    return float(x)


def _decode_num(x, where):
    """One JSON number by the number rules: a float must be finite; an int
    or a "p/q" string becomes a Fraction, which must have a finite float
    value; a bool or any other type is an error."""
    kind = type(x)
    if kind is float:
        if math.isfinite(x):
            return x
        raise ParseError(f"{where}: non-finite number {x!r}")
    if kind is int or kind is str:
        try:
            return _exact(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational {x!r}: {exc}") from None
        except OverflowError:
            raise ParseError(f"{where}: {x!r} has no finite float value") from None
    if kind is bool:
        raise ParseError(f"{where}: expected a number, got {x!r}")
    raise ParseError(f"{where}: expected a number, got {kind.__name__}")


@functools.lru_cache(maxsize=256)
def _exact(x):
    """The Fraction of an int or a "p/q" string, after a check that it has a
    finite float value (OverflowError otherwise). Exact files repeat a few
    numbers, such as the probabilities in eighths, so they are kept."""
    exact = Fraction(x)
    float(exact)
    return exact


def _numbers(xs):
    """The JSON numbers xs as decoded by _decode_num, a whole list at a
    time: floats as they are (the constructors' range checks see NaN and
    infinities), ints and "p/q" strings as Fractions. Raises ValueError or
    ArithmeticError when xs mixes floats with exact numbers or holds
    anything else, or an exact number breaks a rule."""
    kinds = set(map(type, xs))
    if kinds == {float}:
        return xs
    if kinds <= {int, str}:
        return list(map(_exact, xs))
    raise ValueError("neither floats nor exact numbers alone")


def _encode_law(law):
    return [[_encode_num(v), _encode_num(p)] for v, p in law.support]


def _decode_law(pairs, where):
    if not isinstance(pairs, list):
        raise ParseError(f"{where}: law must be a list of [value, prob] pairs")
    if set(map(type, pairs)) == {list}:
        kinds = set(map(type, chain.from_iterable(pairs)))
        try:  # a pair of the wrong length fails to unpack: a ValueError
            if kinds == {float}:
                return DiscreteDistribution(pairs)
            if kinds <= {int, str}:
                return DiscreteDistribution([(_exact(v), _exact(p)) for v, p in pairs])
        except (ArithmeticError, ValueError):
            pass  # a ValidationError too: a number breaking a rule comes first
    # pair by pair, in document order, for the message
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


def _decode_config(cd):
    mults = _field(cd, "multipliers", list)
    try:
        return Configuration(_numbers(mults), _decode_law(_field(cd, "law", list), "law"))
    except (ArithmeticError, ValueError):
        # again number by number, in document order, for the message
        mults = [_decode_num(a, "multipliers") for a in mults]
        return Configuration(mults, _decode_law(_field(cd, "law", list), "law"))


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
                configs = [_decode_config(cd) for cd in _field(rd, "configs", list)]
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
    except ValueError as exc:  # an integer past Python's digit limit, not a float either
        raise ParseError(f"number out of range: {exc}") from None
    return instance_from_dict(doc)


def write_instance(inst, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))


def read_instance(path):
    with open(path, encoding="utf-8") as fh:
        return loads_instance(fh.read())
