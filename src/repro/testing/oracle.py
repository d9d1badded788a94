"""The Algorithm-1 reference walk the compiled kernel is tested against.

:func:`oracle_walk` is the MSM level walk written the plain way, over
index nodes: per level it groups the active points by node, resolves
each node's mechanism through :meth:`~repro.core.engine.WalkEngine.resolve`
(in first-visit order), locates the points with the index's own
``locate_child_indices``, draws a uniform child for the drifted points,
inverts the node's CDF rows and descends.  It consumes the RNG stream
exactly as :meth:`~repro.core.kernel.CompiledWalk.walk_arrays` does —
one ``rng.random(n_drifted)`` block (skipped when none drifted), then
one ``rng.random(n_active)`` block, both in ascending batch order — so
on a shared seed the kernel must reproduce its points, traces and
degradation reports byte for byte (:func:`assert_same_walks`).  It
records no spans or metrics; the remap, when wired, runs through the
engine's own post-processor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.engine import StepTrace, WalkEngine, WalkResult
from repro.core.resilience import DegradationReport, DegradedNode
from repro.geo.point import Point, points_to_array


def oracle_walk(
    engine: WalkEngine,
    points: Sequence[Point],
    rng: np.random.Generator,
    trace: bool = True,
) -> list[WalkResult]:
    """Walk ``points`` with the reference implementation (see module)."""
    points = list(points)
    if not points:
        return []
    index = engine.index
    coords = points_to_array(points)
    n = len(points)
    nodes = [index.root] * n
    traces: list[list[StepTrace]] = [[] for _ in range(n)]
    substitutions: list[list[DegradedNode]] = [[] for _ in range(n)]
    active = list(range(n))
    for level, eps in enumerate(engine.budgets, start=1):
        groups: dict[tuple[int, ...], list[int]] = {}
        for i in active:
            groups.setdefault(nodes[i].path, []).append(i)
        children = {
            path: index.children(nodes[idxs[0]]) for path, idxs in groups.items()
        }
        groups = {path: idxs for path, idxs in groups.items() if children[path]}
        entries = {
            path: engine.resolve(nodes[idxs[0]], level, children[path])
            for path, idxs in groups.items()
        }
        active = sorted(i for idxs in groups.values() for i in idxs)
        if not active:
            break
        pos = {i: p for p, i in enumerate(active)}
        x_hat = np.empty(len(active), dtype=np.int64)
        fanout = np.empty(len(active), dtype=np.int64)
        for path, idxs in groups.items():
            at = [pos[i] for i in idxs]
            x_hat[at] = index.locate_child_indices(nodes[idxs[0]], coords[idxs])
            fanout[at] = len(children[path])
        drifted = x_hat < 0
        if drifted.any():
            r = rng.random(int(drifted.sum()))
            fan = fanout[drifted]
            x_hat[drifted] = np.minimum((r * fan).astype(np.int64), fan - 1)
        u = rng.random(len(active))
        for path, idxs in groups.items():
            entry = entries[path]
            at = [pos[i] for i in idxs]
            reported = entry.matrix.sample_rows(x_hat[at], u=u[at])
            for i, p, r in zip(idxs, at, reported.tolist()):
                traces[i].append(
                    StepTrace(
                        level=level,
                        node_path=path,
                        x_hat_index=int(x_hat[p]),
                        x_hat_random=bool(drifted[p]),
                        reported_index=r,
                        degraded=entry.degraded,
                        mechanism=entry.source,
                    )
                )
                if entry.degraded:
                    substitutions[i].append(
                        DegradedNode(
                            node_path=path,
                            level=level,
                            epsilon=eps,
                            fallback=entry.source,
                            reason=entry.reason or "",
                        )
                    )
                nodes[i] = children[path][r]
    results = [
        WalkResult(
            point=nodes[i].center,
            trace=tuple(traces[i]) if trace else (),
            degradation=DegradationReport(tuple(substitutions[i])),
        )
        for i in range(n)
    ]
    post = engine.postprocessor
    return results if post is None else post.finalise(results)


def assert_same_walks(
    got: Sequence[WalkResult], expected: Sequence[WalkResult]
) -> None:
    """Fail unless two walk lists agree byte for byte: points, traces,
    degradation reports and remap provenance."""
    assert len(got) == len(expected), "batch sizes differ"
    for field in ("point", "trace", "degradation", "raw_point"):
        mine = [getattr(w, field) for w in got]
        theirs = [getattr(w, field) for w in expected]
        assert mine == theirs, f"walk {field}s differ from the oracle's"
