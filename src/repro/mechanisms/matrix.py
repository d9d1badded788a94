"""Stochastic mechanism matrices.

A discrete GeoInd mechanism over location sets X (inputs) and Z (outputs)
is a row-stochastic matrix ``K`` with ``K[x, z] = Pr[report z | at x]``
(Figure 2 of the paper).  :class:`MechanismMatrix` bundles the matrix
with its location sets and provides the operations everything else is
built from: row sampling, exact expected-loss computation, composition,
and post-processing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import MechanismError
from repro.geo.metric import Metric
from repro.geo.point import Point

#: Row-sum slack tolerated before a matrix is rejected as non-stochastic.
_ROW_TOL = 1e-6


class MechanismMatrix:
    """An immutable row-stochastic matrix over discrete locations.

    Parameters
    ----------
    inputs:
        The actual-location set X (row labels).
    outputs:
        The reported-location set Z (column labels).
    k:
        ``(len(inputs), len(outputs))`` matrix of conditional
        probabilities.  Tiny negative entries from LP round-off (down to
        ``-1e-6``) are clipped to zero and rows renormalised.
    """

    def __init__(
        self,
        inputs: Sequence[Point],
        outputs: Sequence[Point],
        k: np.ndarray,
    ):
        k = np.asarray(k, dtype=float)
        if k.ndim != 2 or k.shape != (len(inputs), len(outputs)):
            raise MechanismError(
                f"matrix shape {k.shape} does not match "
                f"{len(inputs)} inputs x {len(outputs)} outputs"
            )
        if not np.all(np.isfinite(k)):
            raise MechanismError("matrix has non-finite entries")
        if np.any(k < -_ROW_TOL):
            raise MechanismError(
                f"matrix has negative entries below tolerance: min={k.min():.3e}"
            )
        k = np.clip(k, 0.0, None)
        sums = k.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _ROW_TOL):
            worst = float(np.abs(sums - 1.0).max())
            raise MechanismError(
                f"matrix rows are not stochastic (worst deviation {worst:.3e})"
            )
        self._inputs = list(inputs)
        self._outputs = list(outputs)
        self._k = k / sums[:, None]
        self._k.setflags(write=False)
        self._cdf: np.ndarray | None = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> list[Point]:
        """The actual-location set X."""
        return list(self._inputs)

    @property
    def outputs(self) -> list[Point]:
        """The reported-location set Z."""
        return list(self._outputs)

    @property
    def k(self) -> np.ndarray:
        """The (read-only) stochastic matrix."""
        return self._k

    @property
    def shape(self) -> tuple[int, int]:
        """``(|X|, |Z|)``."""
        return self._k.shape

    @property
    def cdf(self) -> np.ndarray:
        """Row-wise cumulative distribution, cached (read-only).

        ``cumsum`` over full rows first and gathering after is bitwise
        identical to gathering first and summing after (each row's prefix
        sums involve only that row), so sampling through this cache
        reproduces the historical per-call ``cumsum(k[idx])`` exactly.
        """
        if self._cdf is None:
            cdf = np.cumsum(self._k, axis=1)
            cdf.setflags(write=False)
            self._cdf = cdf
        return self._cdf

    def row(self, x_index: int) -> np.ndarray:
        """The output distribution ``K(x)(Z)`` for input index ``x_index``."""
        return self._k[x_index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MechanismMatrix({self.shape[0]}x{self.shape[1]})"

    # ------------------------------------------------------------------
    # behaviour
    # ------------------------------------------------------------------
    def sample(self, x_index: int, rng: np.random.Generator) -> int:
        """Draw an output index from row ``x_index``."""
        return int(rng.choice(self._k.shape[1], p=self._k[x_index]))

    def sample_point(self, x_index: int, rng: np.random.Generator) -> Point:
        """Draw an output location from row ``x_index``."""
        return self._outputs[self.sample(x_index, rng)]

    def sample_rows(
        self,
        x_indices: np.ndarray,
        rng: np.random.Generator | None = None,
        u: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw one output index per entry of ``x_indices``, vectorised.

        Equivalent in distribution to calling :meth:`sample` once per
        index (each draw is independent, conditioned only on its row),
        but implemented by CDF inversion over the gathered rows — one
        ``rng.random`` call and a comparison instead of ``len(x_indices)``
        ``rng.choice`` calls.  This is the batch-sanitisation hot path.

        The uniforms may be drawn by the caller and passed via ``u``
        (one per index) — the reference walk of
        :mod:`repro.testing.oracle` does this so that it consumes the
        RNG stream exactly as the compiled kernel does.
        """
        idx = np.asarray(x_indices, dtype=np.int64).ravel()
        if u is None:
            if rng is None:
                raise MechanismError("sample_rows needs either rng or u")
            u = rng.random(idx.size)
        else:
            u = np.asarray(u, dtype=float).ravel()
            if u.size != idx.size:
                raise MechanismError(
                    f"{u.size} uniforms for {idx.size} row indices"
                )
        if idx.size == 0:
            return np.empty(0, dtype=np.int64)
        n_rows, n_cols = self._k.shape
        if np.any((idx < 0) | (idx >= n_rows)):
            raise MechanismError(
                f"row indices outside [0, {n_rows}): "
                f"min={idx.min()}, max={idx.max()}"
            )
        return invert_cdf_rows(self.cdf[idx], u)

    def expected_loss(self, prior: np.ndarray, metric: Metric) -> float:
        """Exact expected utility loss ``sum_x Pi(x) K(x)(z) dQ(x, z)``.

        This is the paper's Eq. (3) objective evaluated in closed form,
        with ``prior`` a probability vector over :attr:`inputs`.
        """
        prior = np.asarray(prior, dtype=float).ravel()
        if prior.size != self._k.shape[0]:
            raise MechanismError(
                f"prior has {prior.size} entries for {self._k.shape[0]} inputs"
            )
        d = metric.pairwise(self._inputs, self._outputs)
        return float(prior @ (self._k * d).sum(axis=1))

    def output_distribution(self, prior: np.ndarray) -> np.ndarray:
        """Marginal ``Pr[z] = sum_x Pi(x) K(x, z)`` over outputs."""
        prior = np.asarray(prior, dtype=float).ravel()
        return prior @ self._k

    def stay_probabilities(self) -> np.ndarray:
        """``Pr[x|x]`` per location — the budget model's target quantity.

        Only defined when X and Z coincide elementwise.
        """
        if self._k.shape[0] != self._k.shape[1]:
            raise MechanismError("stay probability needs square X = Z")
        return np.diag(self._k).copy()

    def compose(self, next_step: "MechanismMatrix") -> "MechanismMatrix":
        """Chain this mechanism's output into another's input.

        Requires this mechanism's output set to coincide with
        ``next_step``'s input set; the result is the matrix product —
        the distribution of the two-step pipeline.
        """
        if self._outputs != next_step._inputs:
            raise MechanismError(
                "cannot compose: outputs of the first mechanism differ "
                "from inputs of the second"
            )
        return MechanismMatrix(
            self._inputs, next_step._outputs, self._k @ next_step.k
        )

    def with_remap(self, assignment: np.ndarray) -> "MechanismMatrix":
        """Apply a deterministic output remap ``z -> outputs[assignment[z]]``.

        Deterministic post-processing of mechanism output never degrades
        GeoInd (data-processing inequality), which is why the paper's PL
        benchmark may snap its output to the grid.
        """
        assignment = np.asarray(assignment, dtype=np.int64).ravel()
        n_out = self._k.shape[1]
        if assignment.size != n_out:
            raise MechanismError(
                f"remap has {assignment.size} entries for {n_out} outputs"
            )
        if np.any((assignment < 0) | (assignment >= n_out)):
            raise MechanismError("remap targets outside the output set")
        remapped = np.zeros_like(self._k)
        np.add.at(remapped.T, assignment, self._k.T)
        return MechanismMatrix(self._inputs, self._outputs, remapped)


# ----------------------------------------------------------------------
# Arena operations (compiled-walk support)
# ----------------------------------------------------------------------
def invert_cdf_rows(cdf_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Invert pre-gathered CDF rows at uniforms ``u`` (one per row).

    Comparison-count inversion: output ``j`` is the number of the row's
    entries strictly below ``u`` — ``cdf[j-1] < u <= cdf[j]``, what
    ``np.searchsorted(row, u, side="left")`` returns — clamped to the
    last output.  Used by both :meth:`sample_rows` and the compiled
    kernel's cross-node arena gather so the two paths are bitwise
    identical given the same rows and uniforms.

    The ``(n, k)`` rows are compared transposed, into a C-contiguous
    ``(k, n)`` byte buffer, and the counts are summed along its first
    axis: ``k - 1`` whole-row additions rather than ``n`` short
    reductions over ``k`` bools.  Counts are integers, so any summation
    order gives the same result.
    """
    n, k = cdf_rows.shape
    below = np.empty((k, n), dtype=np.uint8)
    np.greater(u, cdf_rows.T, out=below, casting="unsafe")
    out = below.sum(axis=0, dtype=np.int64)
    # Float round-off can leave cdf[:, -1] a hair under 1.0; clamp so
    # a u drawn in that sliver still maps to the last output.
    np.minimum(out, k - 1, out=out)
    return out
