"""Seeded instance generators for the benchmark workloads.

Every instance is built from the library's public constructors and
generators, with numbers drawn from a Philox stream keyed by
(workload seed, stream tag). The same seed therefore gives the same
instances, and `write_instance` turns them into byte-identical files.

Laws use float values rounded to three decimals and probabilities that are
multiples of 1/8, which are exact in binary, so every law validates exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from cfgbal import (
    Configuration,
    ConfigInstance,
    DiscreteDistribution,
    RelatedInstance,
    Request,
    RoutingInstance,
    UnrelatedInstance,
    gen_adaptivity_gap_instance,
    random_tiny_instance,
)

# stream tags keep the workloads' draws independent of each other
TAG_UNRELATED = 1 << 20
TAG_CONFIG = 2 << 20
TAG_RELATED = 3 << 20
TAG_GRID = 4 << 20
TAG_ADAPTIVE = 5 << 20
TAG_GAP = 6 << 20
TAG_TINY = 7 << 20


def stream(seed, tag):
    """Philox generator for one (seed, tag) pair."""
    key = np.array([seed & (2**64 - 1), tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_law(rng, scale, support=3):
    """`support` distinct positive values around `scale`, eighth-probabilities."""
    values = set()
    while len(values) < support:
        values.add(round(float(scale * np.exp(rng.normal(0.0, 0.8))), 3) or 0.001)
    cuts = sorted(rng.choice(7, size=support - 1, replace=False) + 1)
    eighths = [b - a for a, b in zip([0] + cuts, cuts + [8])]
    return DiscreteDistribution(
        [(v, w / 8.0) for v, w in zip(sorted(values), eighths)]
    )


def unrelated_instance(seed, k, n, m, support=3):
    """Unrelated machines with an independent law per (job, machine)."""
    rng = stream(seed, TAG_UNRELATED + k)
    jobs = []
    for _ in range(n):
        size = float(rng.uniform(0.5, 2.0))
        jobs.append(
            [random_law(rng, size * float(rng.uniform(0.5, 2.0)), support) for _ in range(m)]
        )
    return UnrelatedInstance(m, jobs)


def dense_config_instance(seed, k, n, m, q=4, density=0.3):
    """Explicit configurations with `density` nonzero multipliers each."""
    rng = stream(seed, TAG_CONFIG + k)
    mult_values = (0.5, 1.0, 2.0)
    requests = []
    for j in range(n):
        configs = []
        for _ in range(q):
            mask = rng.random(m) < density
            if not mask.any():
                mask[int(rng.integers(0, m))] = True
            picks = rng.integers(0, len(mult_values), size=m)
            mults = [mult_values[p] if on else 0.0 for on, p in zip(mask, picks)]
            configs.append(Configuration(mults, random_law(rng, float(rng.uniform(0.5, 2.0)))))
        requests.append(Request(j, configs))
    return ConfigInstance(m, requests)


def related_instance(seed, k, n, m, tag=TAG_RELATED):
    """Related machines with speeds in (0.05, 1] and one law per job."""
    rng = stream(seed, tag + k)
    speeds = [round(float(rng.uniform(0.05, 1.0)), 3) for _ in range(m)]
    jobs = [random_law(rng, float(rng.uniform(0.5, 2.0))) for _ in range(n)]
    return RelatedInstance(speeds, jobs)


def grid_instance(seed, k, side, n, capacities=(1, 2, 4)):
    """side x side bidirectional grid with n random requests.

    Capacities cycle through `capacities` in a pattern fixed by the grid
    index k, and the request endpoints come from a stream keyed by k alone,
    so seeds vary the laws over the same graphs and endpoint pairs: with
    seeded capacities one seed's routing cost differed from another's by 2x,
    and with seeded endpoints one grid's offline solve took from 0.1 s to
    0.7 s by seed, which no usable regression bound absorbs.
    """
    rng = stream(seed, TAG_GRID + k)
    ends = stream(0, TAG_GRID + k)
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            for w in ((v + 1) if c + 1 < side else None, (v + side) if r + 1 < side else None):
                if w is None:
                    continue
                for tail, head in ((v, w), (w, v)):
                    edges.append((tail, head, capacities[(len(edges) + k) % len(capacities)]))
    vertices = side * side
    requests = []
    for _ in range(n):
        source, sink = (int(x) for x in ends.choice(vertices, size=2, replace=False))
        requests.append((source, sink, random_law(rng, float(rng.uniform(0.5, 2.0)), support=2)))
    return RoutingInstance(vertices, edges, requests)


def gap_instance(seed):
    """The adaptivity-gap family with m = 4 and tau drawn from {2, 3, 4}.

    m = 4 keeps every load an exact binary float, so the oracle's decision
    table (keyed by exact loads) answers float-load queries unchanged.
    """
    rng = stream(seed, TAG_GAP)
    return gen_adaptivity_gap_instance(4, Fraction(int(rng.integers(2, 5))))


def tiny_suite(seed, count):
    """Seeded oracle-tractable configuration instances."""
    return [
        random_tiny_instance("config", stream(seed, TAG_TINY + k), n_max=3)
        for k in range(count)
    ]
