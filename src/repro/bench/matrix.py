"""Declarative benchmark matrices.

A benchmark matrix is the cross product
``mechanisms x indexes x datasets x epsilons`` plus a workload
configuration (how many points to push through each cell, how many
samples feed the empirical-epsilon estimate).  Matrices are named and
versioned in code — ``smoke`` is the CI gate (small enough to run on
every push), ``full`` is the scheduled sweep — so a run artifact can
always be traced back to the exact cell set that produced it.

Every mechanism in a matrix must be able to produce an exact
:class:`~repro.mechanisms.matrix.MechanismMatrix` over the cell's leaf
grid: the Oya-style metric panel (conditional entropy, worst-case
loss) is mandatory for every cell, not just the ones where it is easy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.exceptions import EvaluationError

#: Mechanism dimension values understood by the runner.
MECHANISMS = ("msm", "msm-remap", "pl", "exp")

#: Dataset dimension values understood by the runner.  ``graph-city``
#: is the synthetic road network (no I/O, fully deterministic); it is
#: only meaningful with a ``kind="graph"`` index and the MSM.
DATASETS = ("uniform", "gowalla", "yelp", "graph-city")

#: Index dimension kinds: ``gihi`` is the planar hierarchical grid,
#: ``graph`` the road-network balanced edge-cut partition.
INDEX_KINDS = ("gihi", "graph")


@dataclass(frozen=True)
class IndexSpec:
    """One value of the index dimension: a GIHI geometry or a graph
    partition.

    For ``kind="gihi"`` (the default) ``granularity`` is the per-level
    fanout ``g``, ``height`` the tree depth ``h``; the leaf grid is
    ``g**h x g**h``.  Flat (grid) mechanisms in the same cell column use
    the identical leaf grid, so losses are comparable across the
    mechanism dimension.  For ``kind="graph"`` the same two numbers
    parameterise a :class:`~repro.graph.partition.GraphPartitionIndex`
    (per-node fanout and tree height) over the synthetic road network.
    """

    granularity: int
    height: int
    kind: str = "gihi"

    def __post_init__(self) -> None:
        if self.kind not in INDEX_KINDS:
            raise EvaluationError(
                f"unknown index kind {self.kind!r}; choose from {INDEX_KINDS}"
            )
        if self.granularity < 2:
            raise EvaluationError("index granularity must be >= 2")
        if self.height < 1:
            raise EvaluationError("index height must be >= 1")

    @property
    def leaf_granularity(self) -> int:
        return self.granularity**self.height

    @property
    def label(self) -> str:
        if self.kind == "graph":
            return f"graph-f{self.granularity}h{self.height}"
        return f"gihi-g{self.granularity}h{self.height}"


@dataclass(frozen=True)
class DatasetSpec:
    """One value of the dataset dimension.

    ``uniform`` is the synthetic uniform prior over the 20 km square
    (no I/O, fully deterministic); ``gowalla``/``yelp`` load the
    check-in datasets scaled by ``fraction``.
    """

    name: str
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.name not in DATASETS:
            raise EvaluationError(
                f"unknown dataset {self.name!r}; choose from {DATASETS}"
            )
        if not (0.0 < self.fraction <= 1.0):
            raise EvaluationError("dataset fraction must be in (0, 1]")

    @property
    def label(self) -> str:
        if self.name == "uniform" or self.fraction == 1.0:
            return self.name
        return f"{self.name}-{self.fraction:g}"


@dataclass(frozen=True)
class CellSpec:
    """One fully-resolved benchmark cell."""

    mechanism: str
    index: IndexSpec
    dataset: DatasetSpec
    epsilon: float

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise EvaluationError(
                f"unknown mechanism {self.mechanism!r}; "
                f"choose from {MECHANISMS}"
            )
        if self.epsilon <= 0:
            raise EvaluationError("cell epsilon must be positive")
        graph_index = self.index.kind == "graph"
        graph_dataset = self.dataset.name == "graph-city"
        if graph_index != graph_dataset:
            raise EvaluationError(
                "graph cells must pair a kind='graph' index with the "
                "'graph-city' dataset (and vice versa); got "
                f"index={self.index.label!r}, dataset={self.dataset.label!r}"
            )
        if graph_index and self.mechanism != "msm":
            raise EvaluationError(
                "graph cells support only the 'msm' mechanism "
                "(flat grid mechanisms and the optimal remap are "
                f"planar-only); got {self.mechanism!r}"
            )

    @property
    def cell_id(self) -> str:
        """Stable identity used to match run cells against baselines."""
        return (
            f"{self.mechanism}|{self.index.label}|"
            f"{self.dataset.label}|eps{self.epsilon:g}"
        )


@dataclass(frozen=True)
class MatrixSpec:
    """A named benchmark matrix plus its workload configuration.

    Attributes
    ----------
    name:
        Registry key; recorded in every artifact.
    mechanisms / indexes / datasets / epsilons:
        The four matrix dimensions.
    n_points:
        Throughput workload size per cell.
    n_eval_inputs:
        How many evenly-spaced leaf centres feed the empirical-epsilon
        estimate.
    n_eval_samples:
        Samples drawn per evaluation input.
    n_timing_repeats:
        Throughput is the best of this many timed passes (noise from a
        shared machine only ever slows a pass down, so the minimum is
        the honest estimate of the code's speed).
    rho:
        Budget-allocation target passed to the MSM builder.
    extra_cells:
        Fully-resolved cells appended after the cross product — used
        for combinations that only make sense pointwise (the graph
        cells pair one dataset with one index kind and one mechanism,
        so putting them in the product dimensions would explode into
        invalid cells).
    """

    name: str
    mechanisms: tuple[str, ...]
    indexes: tuple[IndexSpec, ...]
    datasets: tuple[DatasetSpec, ...]
    epsilons: tuple[float, ...]
    extra_cells: tuple[CellSpec, ...] = ()
    n_points: int = 5_000
    n_eval_inputs: int = 6
    n_eval_samples: int = 3_000
    n_timing_repeats: int = 3
    rho: float = 0.8

    def __post_init__(self) -> None:
        if not (
            self.mechanisms and self.indexes
            and self.datasets and self.epsilons
        ):
            raise EvaluationError("matrix dimensions must be non-empty")
        if self.n_points < 1 or self.n_eval_samples < 1:
            raise EvaluationError("workload sizes must be positive")
        if self.n_timing_repeats < 1:
            raise EvaluationError("n_timing_repeats must be >= 1")
        if self.n_eval_inputs < 2:
            raise EvaluationError(
                "empirical epsilon needs at least 2 evaluation inputs"
            )

    def cells(self) -> Iterator[CellSpec]:
        """The cross product, then the extra cells, in deterministic order."""
        for mechanism in self.mechanisms:
            for index in self.indexes:
                for dataset in self.datasets:
                    for epsilon in self.epsilons:
                        yield CellSpec(mechanism, index, dataset, epsilon)
        yield from self.extra_cells

    def __len__(self) -> int:
        return (
            len(self.mechanisms) * len(self.indexes)
            * len(self.datasets) * len(self.epsilons)
            + len(self.extra_cells)
        )


#: The two road-network smoke cells: the staged MSM over the balanced
#: edge-cut partition of the synthetic city, gated at the same two
#: budget points as the planar cells.
_GRAPH_SMOKE_CELLS = tuple(
    CellSpec(
        "msm",
        IndexSpec(granularity=4, height=2, kind="graph"),
        DatasetSpec("graph-city"),
        eps,
    )
    for eps in (0.5, 1.0)
)

#: The CI gate matrix: 8 cells, < 1 minute on a laptop.  One planar
#: geometry, one real dataset at a small fraction, the three mechanism
#: families, two budget points — plus the two road-network cells.
SMOKE = MatrixSpec(
    name="smoke",
    mechanisms=("msm", "pl", "exp"),
    indexes=(IndexSpec(granularity=3, height=2),),
    datasets=(DatasetSpec("gowalla", fraction=0.05),),
    epsilons=(0.5, 1.0),
    extra_cells=_GRAPH_SMOKE_CELLS,
    n_points=20_000,
    n_eval_inputs=6,
    n_eval_samples=3_000,
    n_timing_repeats=5,
)

#: The scheduled sweep: every mechanism (including the remapped MSM),
#: two geometries, two datasets plus the uniform control, three budget
#: points — 48 cells, allowed to be slow.
FULL = MatrixSpec(
    name="full",
    mechanisms=("msm", "msm-remap", "pl", "exp"),
    indexes=(
        IndexSpec(granularity=3, height=2),
        IndexSpec(granularity=4, height=2),
    ),
    datasets=(
        DatasetSpec("uniform"),
        DatasetSpec("gowalla", fraction=0.25),
    ),
    epsilons=(0.5, 1.0, 2.0),
    n_points=50_000,
    n_eval_inputs=8,
    n_eval_samples=4_000,
    n_timing_repeats=5,
)

MATRICES: dict[str, MatrixSpec] = {m.name: m for m in (SMOKE, FULL)}


def get_matrix(name: str) -> MatrixSpec:
    """Look up a named matrix, with a helpful error."""
    try:
        return MATRICES[name]
    except KeyError:
        raise EvaluationError(
            f"unknown benchmark matrix {name!r}; "
            f"available: {sorted(MATRICES)}"
        ) from None
