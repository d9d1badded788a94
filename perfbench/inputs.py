"""Seeded inputs: request samples, arrival schedules, the refusal oracle.

Every random input of a run derives from the run's ``--seed`` through a
named stream, so one seed always yields the same requests and the same
arrival schedule, and adding a stream never perturbs another.  The
program under test receives only the generated inputs; the datasets
themselves (the synthetic Gowalla-Austin check-ins and the synthetic
road network) are fixed.
"""

from __future__ import annotations

import zlib
from collections import Counter
from collections.abc import Iterable

import numpy as np

from repro.geo import BoundingBox, Point
from repro.graph import RoadGraph, synthetic_city

#: Road network of ``publish-graph``: a 25 x 25 intersection grid
#: (625 vertices) with 0.5 km blocks.
CITY_BLOCKS = 24
CITY_BLOCK_KM = 0.5


def stream(seed: int, name: str) -> np.random.Generator:
    """The generator for one named input stream of a run."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode())])
    )


def city() -> RoadGraph:
    """The synthetic road network of ``publish-graph`` (deterministic)."""
    return synthetic_city(blocks=CITY_BLOCKS, block_km=CITY_BLOCK_KM)


def uniform_points(
    bounds: BoundingBox, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``(n, 2)`` locations uniform over ``bounds``."""
    xs = rng.uniform(bounds.min_x, bounds.max_x, size=n)
    ys = rng.uniform(bounds.min_y, bounds.max_y, size=n)
    return np.column_stack([xs, ys])


def to_points(xy: np.ndarray) -> list[Point]:
    """The program's input objects for an ``(n, 2)`` array."""
    return [Point(x, y) for x, y in xy.tolist()]


def user_label(user_id: int) -> str:
    """The serving id of a check-in's user."""
    return f"user-{int(user_id)}"


def open_schedule(
    rate: float, seconds: float, rng: np.random.Generator
) -> np.ndarray:
    """Due offsets (seconds from the start) of a Poisson arrival stream.

    The count is fixed at ``rate * seconds`` and the times are sorted
    uniforms on ``[0, seconds)``: a Poisson process conditioned on its
    count.  Fixing the count keeps the offered rate identical across
    seeds, so a run's figures do not move with how many requests the
    seed happened to draw.
    """
    n = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=n))


def expected_refusals(users: Iterable[str], lifetime_reports: int) -> int:
    """How many requests the budget refuses for this arrival sequence.

    Each user may spend ``lifetime_reports`` reports; every later
    request of that user is refused.  Exact when requests of one user
    are admitted in arrival order and none fails, which holds for a
    one-worker pool.
    """
    counts = Counter(users)
    return sum(max(0, n - lifetime_reports) for n in counts.values())
