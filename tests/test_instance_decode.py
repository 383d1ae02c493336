"""The instance decoder against the per-number reference in conftest, and
the write/read round trip.

Documents of all four kinds are generated valid and then mutated: a number
or a whole node replaced by a wild JSON value (ints, "p/q" strings good and
bad, decimals, -0.0, 5e-324, the largest float, NaN, Infinity, bools,
strings, None, lists, objects), a field dropped, or the pairs of a law
reordered. The decoder must give every decoded number the reference's type
and value, keep its support order, and raise the reference's exception
class and message. The one intended difference is an exact number with no
finite float value (10**400, say): the reference accepts it and crashes
later, the decoder rejects it where the reference rejects a non-finite
float, so the reference reads -Infinity in its place. Such numbers are
drawn only where a number belongs: elsewhere a message would quote them.
"""

import json
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from cfgbal.distributions import DiscreteDistribution
from cfgbal.instance_io import ParseError, dumps_instance, loads_instance
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    RelatedInstance,
    Request,
    RoutingInstance,
    UnrelatedInstance,
)

from conftest import decoded_numbers, reference_loads_instance

HUGE = object()  # stands for one of HUGE_NUMBERS, drawn per document
HUGE_NUMBERS = (10**400, -(10**400), f"{10**400}/3", f"-{10**401}/7")
TINY_RATIONAL = f"1/{10**400}"  # exact, its float value is 0.0

fraction_text = st.fractions(min_value=-2, max_value=6, max_denominator=12).map(
    lambda f: f"{f.numerator}/{f.denominator}"
)
wild_numbers = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([2**53 + 1, 10**20]),
    fraction_text,
    st.sampled_from(["1/0", "x", "", "1.5", " 2/4", "-1/2", "1e3", "inf", "nan", TINY_RATIONAL]),
    st.floats().filter(lambda x: x != -math.inf),  # -inf is the reference's HUGE
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 0.1, 0.125, math.nan, math.inf]),
    st.booleans(),
)
wild_nodes = st.one_of(
    wild_numbers,
    st.none(),
    # fresh containers: a later mutation may write into one
    st.sampled_from(['"config"', '"law"', "[]", "{}", "[1]", "[[1, 1]]", '{"kind": "config"}']).map(
        json.loads
    ),
)



def sometimes_huge(numbers):
    """numbers, or HUGE once in 40 draws."""
    return st.integers(0, 39).flatmap(lambda k: st.just(HUGE) if k == 0 else numbers)


value_numbers = sometimes_huge(
    st.one_of(
        st.integers(0, 6),
        st.fractions(min_value=0, max_value=6, max_denominator=6).map(
            lambda f: f"{f.numerator}/{f.denominator}"
        ),
        st.sampled_from([0.0, -0.0, 0.5, 1.25, 3.0, 5e-324, 1.7976931348623157e308, TINY_RATIONAL]),
    )
)


@st.composite
def laws(draw):
    """[[value, prob], ...] with distinct values and probabilities summing
    to one: "p/q" strings, eighths as decimals, or a single 1."""
    values = draw(st.lists(value_numbers, min_size=1, max_size=3))
    k = len(values)
    cuts = sorted(draw(st.lists(st.integers(1, 7), min_size=k - 1, max_size=k - 1, unique=True)))
    eighths = [b - a for a, b in zip([0] + cuts, cuts + [8])]
    style = draw(st.sampled_from(["exact", "float"]))
    probs = [f"{w}/8" if style == "exact" else w / 8 for w in eighths]
    if k == 1:
        probs = [draw(st.sampled_from([1, "1/1", 1.0]))]
    pairs = [[v, p] for v, p in zip(values, probs)]
    return draw(st.permutations(pairs))


def multiplier_lists(m):
    return st.lists(st.one_of(value_numbers, st.just(2)), min_size=m, max_size=m)


@st.composite
def config_docs(draw):
    m = draw(st.integers(1, 3))
    requests = []
    for j in range(draw(st.integers(0, 3))):
        configs = [
            {"multipliers": draw(multiplier_lists(m)), "law": draw(laws())}
            for _ in range(draw(st.integers(1, 2)))
        ]
        requests.append({"id": draw(st.sampled_from([j, j, 0])), "configs": configs})
    return {"kind": "config", "m": m, "requests": requests}


@st.composite
def unrelated_docs(draw):
    m = draw(st.integers(1, 3))
    jobs = [[draw(laws()) for _ in range(m)] for _ in range(draw(st.integers(0, 3)))]
    return {"kind": "unrelated", "m": m, "jobs": jobs}


@st.composite
def related_docs(draw):
    speeds = draw(st.lists(sometimes_huge(st.sampled_from([1, "1/2", 0.25, 2.0, 3])), min_size=1, max_size=3))
    jobs = draw(st.lists(laws(), max_size=3))
    return {"kind": "related", "speeds": speeds, "jobs": jobs}


@st.composite
def routing_docs(draw):
    caps = draw(st.lists(sometimes_huge(st.sampled_from([1, "3/2", 0.5, 2.0])), min_size=3, max_size=3))
    edges = [[0, 1, caps[0]], [1, 2, caps[1]], [0, 2, caps[2]]]
    requests = [[0, 2, draw(laws())] for _ in range(draw(st.integers(0, 2)))]
    return {"kind": "routing", "vertices": 3, "edges": edges, "requests": requests}


def _slots(node):
    """(container, key) of every node below node."""
    keys = range(len(node)) if isinstance(node, list) else list(node) if isinstance(node, dict) else ()
    for key in keys:
        yield node, key
        yield from _slots(node[key])


@st.composite
def documents(draw):
    doc = draw(st.one_of(config_docs(), unrelated_docs(), related_docs(), routing_docs()))
    for _ in range(draw(st.integers(0, 2))):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and draw(st.integers(0, 4)) == 0:
            del node[key]
        else:
            node[key] = draw(wild_nodes)
    return doc


def _substitute(node, huge):
    if node is HUGE:
        return huge
    if isinstance(node, list):
        return [_substitute(x, huge) for x in node]
    if isinstance(node, dict):
        return {k: _substitute(v, huge) for k, v in node.items()}
    return node


def outcome(loads, text):
    try:
        inst = loads(text)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    return inst, decoded_numbers(inst)


@settings(max_examples=250, deadline=None)
@given(documents(), st.sampled_from(HUGE_NUMBERS))
def test_decoder_matches_reference(doc, huge):
    want = outcome(reference_loads_instance, json.dumps(_substitute(doc, -math.inf)))
    got = outcome(loads_instance, json.dumps(_substitute(doc, huge)))
    flagged = ": non-finite number -inf"
    if want[0] is ParseError and want[1].endswith(flagged):
        want = (ParseError, want[1][: -len(flagged)] + f": {huge!r} has no finite float value")
    assert got == want


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "related", "speeds": [1], "jobs": [[[1e400, 1]]]}',
        '{"kind": "related", "speeds": [-1e400], "jobs": []}',
        '{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": '
        '[{"multipliers": [1e400], "law": [[1, 1]]}]}]}',
    ],
)
def test_overflowing_decimals_match_reference(text):
    assert outcome(loads_instance, text) == outcome(reference_loads_instance, text)
    assert outcome(loads_instance, text)[0] is ParseError


@pytest.mark.parametrize("huge", HUGE_NUMBERS)
def test_no_finite_float_value_names_the_field(huge):
    doc = {
        "kind": "config",
        "m": 1,
        "requests": [{"id": 0, "configs": [{"multipliers": [1], "law": [[huge, "1/2"], [1, "1/2"]]}]}],
    }
    with pytest.raises(ParseError, match=r"^law\[0\]\.value: .* has no finite float value$"):
        loads_instance(json.dumps(doc))


# ---------------------------------------------------------------------------
# round trip: loads_instance(dumps_instance(inst)) keeps every type and value

exact_values = st.fractions(min_value=0, max_value=8, max_denominator=16)
float_values = st.one_of(
    st.floats(min_value=0, max_value=1e6),
    st.sampled_from([-0.0, 5e-324, 0.1, 1.7976931348623157e308]),
)
positive = st.one_of(
    st.fractions(min_value=Fraction(1, 16), max_value=8, max_denominator=16),
    st.floats(min_value=1e-3, max_value=1e3),
)


@st.composite
def in_memory_laws(draw):
    values = draw(
        st.lists(st.one_of(exact_values, float_values), min_size=1, max_size=3, unique=True)
    )
    weights = draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values)))
    if draw(st.booleans()):
        probs = [Fraction(w, sum(weights)) for w in weights]
    else:
        cuts = list(range(1, len(values)))  # eighths, exact in binary
        probs = [(b - a) / 8 for a, b in zip([0] + cuts, cuts + [8])]
    return DiscreteDistribution(zip(values, probs))


@st.composite
def in_memory_instances(draw):
    kind = draw(st.sampled_from(["config", "unrelated", "related", "routing"]))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 3))
    if kind == "config":
        mults = st.lists(st.one_of(exact_values, float_values), min_size=m, max_size=m)
        return ConfigInstance(
            m,
            [
                Request(j, [Configuration(draw(mults), draw(in_memory_laws())) for _ in range(2)])
                for j in range(n)
            ],
        )
    if kind == "unrelated":
        return UnrelatedInstance(m, [[draw(in_memory_laws()) for _ in range(m)] for _ in range(n)])
    if kind == "related":
        speeds = draw(st.lists(positive, min_size=m, max_size=m))
        return RelatedInstance(speeds, [draw(in_memory_laws()) for _ in range(n)])
    caps = draw(st.lists(positive, min_size=3, max_size=3))
    edges = [(0, 1, caps[0]), (1, 2, caps[1]), (0, 2, caps[2])]
    return RoutingInstance(3, edges, [(0, 2, draw(in_memory_laws())) for _ in range(n)])


@settings(max_examples=150, deadline=None)
@given(in_memory_instances())
def test_round_trip_keeps_types_and_values(inst):
    back = loads_instance(dumps_instance(inst))
    assert back == inst
    assert decoded_numbers(back) == decoded_numbers(inst)
