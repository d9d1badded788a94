"""Unit tests for repro.mechanisms.matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MechanismError
from repro.geo.metric import EUCLIDEAN
from repro.geo.point import Point
from repro.mechanisms.matrix import MechanismMatrix, invert_cdf_rows


def line_points(n: int) -> list[Point]:
    return [Point(float(i), 0.0) for i in range(n)]


@pytest.fixture
def identity3() -> MechanismMatrix:
    pts = line_points(3)
    return MechanismMatrix(pts, pts, np.eye(3))


class TestConstruction:
    def test_shape_validation(self):
        pts = line_points(3)
        with pytest.raises(MechanismError):
            MechanismMatrix(pts, pts, np.ones((2, 3)) / 3)

    def test_non_stochastic_rejected(self):
        pts = line_points(2)
        with pytest.raises(MechanismError, match="stochastic"):
            MechanismMatrix(pts, pts, np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_negative_entries_rejected(self):
        pts = line_points(2)
        with pytest.raises(MechanismError, match="negative"):
            MechanismMatrix(pts, pts, np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_nan_rejected(self):
        pts = line_points(2)
        k = np.array([[np.nan, 1.0], [0.5, 0.5]])
        with pytest.raises(MechanismError, match="non-finite"):
            MechanismMatrix(pts, pts, k)

    def test_lp_dust_is_cleaned(self):
        """Tiny negatives from LP round-off are clipped and renormalised."""
        pts = line_points(2)
        k = np.array([[1.0 + 1e-9, -1e-9], [0.5, 0.5]])
        m = MechanismMatrix(pts, pts, k)
        assert (m.k >= 0).all()
        assert m.k.sum(axis=1) == pytest.approx(np.ones(2))

    def test_matrix_read_only(self, identity3):
        with pytest.raises(ValueError):
            identity3.k[0, 0] = 0.5


class TestBehaviour:
    def test_row_and_shape(self, identity3):
        assert identity3.shape == (3, 3)
        assert np.array_equal(identity3.row(1), [0, 1, 0])

    def test_sampling_identity(self, identity3, rng):
        for i in range(3):
            assert identity3.sample(i, rng) == i
            assert identity3.sample_point(i, rng) == line_points(3)[i]

    def test_sampling_follows_row(self, rng):
        pts = line_points(2)
        m = MechanismMatrix(pts, pts, np.array([[0.8, 0.2], [0.2, 0.8]]))
        draws = [m.sample(0, rng) for _ in range(3000)]
        assert np.mean(draws) == pytest.approx(0.2, abs=0.03)

    def test_expected_loss_identity_is_zero(self, identity3):
        prior = np.ones(3) / 3
        assert identity3.expected_loss(prior, EUCLIDEAN) == 0.0

    def test_expected_loss_hand_computed(self):
        pts = line_points(2)
        m = MechanismMatrix(pts, pts, np.array([[0.5, 0.5], [0.0, 1.0]]))
        prior = np.array([0.4, 0.6])
        # loss = 0.4 * (0.5 * 1) + 0.6 * 0 = 0.2
        assert m.expected_loss(prior, EUCLIDEAN) == pytest.approx(0.2)

    def test_expected_loss_prior_validation(self, identity3):
        with pytest.raises(MechanismError):
            identity3.expected_loss(np.ones(2), EUCLIDEAN)

    def test_output_distribution(self):
        pts = line_points(2)
        m = MechanismMatrix(pts, pts, np.array([[0.5, 0.5], [0.0, 1.0]]))
        out = m.output_distribution(np.array([0.5, 0.5]))
        assert out == pytest.approx([0.25, 0.75])

    def test_stay_probabilities(self):
        pts = line_points(2)
        m = MechanismMatrix(pts, pts, np.array([[0.9, 0.1], [0.3, 0.7]]))
        assert m.stay_probabilities() == pytest.approx([0.9, 0.7])

    def test_stay_probabilities_requires_square(self):
        m = MechanismMatrix(
            line_points(2), line_points(3), np.ones((2, 3)) / 3
        )
        with pytest.raises(MechanismError):
            m.stay_probabilities()


class TestCompose:
    def test_compose_is_matrix_product(self):
        pts = line_points(2)
        a = MechanismMatrix(pts, pts, np.array([[0.5, 0.5], [0.0, 1.0]]))
        b = MechanismMatrix(pts, pts, np.array([[1.0, 0.0], [0.5, 0.5]]))
        c = a.compose(b)
        assert np.allclose(c.k, a.k @ b.k)

    def test_compose_requires_matching_sets(self):
        a = MechanismMatrix(
            line_points(2), line_points(2), np.eye(2)
        )
        other = [Point(10, 10), Point(11, 11)]
        b = MechanismMatrix(other, other, np.eye(2))
        with pytest.raises(MechanismError, match="compose"):
            a.compose(b)

    def test_remap(self):
        pts = line_points(3)
        m = MechanismMatrix(pts, pts, np.eye(3))
        remapped = m.with_remap(np.array([0, 0, 2]))
        assert remapped.k[1, 0] == 1.0
        assert remapped.k[2, 2] == 1.0

    def test_remap_validation(self, identity3):
        with pytest.raises(MechanismError):
            identity3.with_remap(np.array([0, 1]))
        with pytest.raises(MechanismError):
            identity3.with_remap(np.array([0, 1, 5]))


@st.composite
def stochastic_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    raw = draw(
        st.lists(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0),
                min_size=n, max_size=n,
            ),
            min_size=n, max_size=n,
        )
    )
    k = np.asarray(raw)
    k /= k.sum(axis=1, keepdims=True)
    return MechanismMatrix(line_points(n), line_points(n), k)


class TestProperties:
    @given(stochastic_matrices())
    @settings(max_examples=50, deadline=None)
    def test_rows_always_sum_to_one(self, m):
        assert m.k.sum(axis=1) == pytest.approx(np.ones(m.shape[0]))

    @given(stochastic_matrices(), stochastic_matrices())
    @settings(max_examples=30, deadline=None)
    def test_composition_preserves_stochasticity(self, a, b):
        if a.shape[1] != b.shape[0]:
            return
        c = a.compose(b)
        assert c.k.sum(axis=1) == pytest.approx(np.ones(c.shape[0]))

    @given(stochastic_matrices())
    @settings(max_examples=30, deadline=None)
    def test_remap_to_best_cell_never_increases_loss(self, m):
        """Deterministic argmin remap weakly improves expected loss."""
        from repro.mechanisms.remap import remap_mechanism

        n = m.shape[0]
        prior = np.full(n, 1.0 / n)
        before = m.expected_loss(prior, EUCLIDEAN)
        after = remap_mechanism(m, prior, EUCLIDEAN).expected_loss(
            prior, EUCLIDEAN
        )
        assert after <= before + 1e-9


# ----------------------------------------------------------------------
# the CDF inversion every sampler shares
# ----------------------------------------------------------------------
def _count_below(cdf_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The row-major comparison count ``invert_cdf_rows`` used to be."""
    out = (u[:, None] > cdf_rows).sum(axis=1)
    return np.minimum(out, cdf_rows.shape[1] - 1).astype(np.int64)


def _searchsorted(cdf_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-row ``searchsorted(side="left")``, clamped to the last output."""
    k = cdf_rows.shape[1]
    return np.array(
        [min(int(np.searchsorted(row, x, side="left")), k - 1)
         for row, x in zip(cdf_rows, u)],
        dtype=np.int64,
    )


def _random_cdf(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    probs = rng.random((n, k))
    probs[rng.random((n, k)) < 0.2] = 0.0  # zero-probability outputs
    probs[:, -1] += 1e-3
    cdf = np.cumsum(probs, axis=1)
    return cdf / cdf[:, -1:]


class TestInvertCdfRows:
    """``invert_cdf_rows`` against two formulas written out here: the
    oracle walk samples through the function itself, so the kernel's
    byte-identity suites cannot catch a wrong inversion."""

    def _check(self, cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
        got = invert_cdf_rows(cdf, u)
        assert got.dtype == np.int64
        assert got.shape == (cdf.shape[0],)
        assert got.tolist() == _count_below(cdf, u).tolist()
        if cdf.shape[0] <= 2_000:
            assert got.tolist() == _searchsorted(cdf, u).tolist()
        return got

    @pytest.mark.parametrize("k", [1, 2, 4, 9, 36])
    @pytest.mark.parametrize("n", [0, 1, 10_000])
    def test_matches_reference_formulas(self, n, k):
        rng = np.random.default_rng(1000 * k + n)
        cdf = _random_cdf(rng, n, k)
        got = self._check(cdf, rng.random(n))
        assert ((got >= 0) & (got < k)).all()
        # per-row searchsorted on a sample of the large batch
        rows = rng.integers(0, max(n, 1), size=min(n, 500))
        u = rng.random(n)
        assert invert_cdf_rows(cdf, u)[rows].tolist() == (
            _searchsorted(cdf[rows], u[rows]).tolist()
        )

    @pytest.mark.parametrize("k", [2, 4, 9, 36])
    def test_uniform_equal_to_a_cdf_entry(self, k):
        """``u == cdf[j]`` reports ``j``: the entry itself is not below."""
        rng = np.random.default_rng(k)
        cdf = _random_cdf(rng, 400, k)
        cols = rng.integers(0, k, size=400)
        u = cdf[np.arange(400), cols]
        got = self._check(cdf, u)
        # the first column equal to u (repeats share one position)
        first = np.argmax(cdf == u[:, None], axis=1)
        assert got.tolist() == first.tolist()

    def test_repeated_entries_never_pick_zero_probability_outputs(self):
        cdf = np.array([[0.25, 0.25, 0.25, 1.0],
                        [0.0, 0.5, 0.5, 1.0],
                        [0.5, 1.0, 1.0, 1.0]])
        for u, want in [(0.1, [0, 1, 0]), (0.25, [0, 1, 0]),
                        (0.3, [3, 1, 0]), (0.5, [3, 1, 0]),
                        (0.7, [3, 3, 1]), (0.999, [3, 3, 1])]:
            assert self._check(cdf, np.full(3, u)).tolist() == want

    @pytest.mark.parametrize("k", [1, 2, 9, 36])
    def test_sliver_under_one_maps_to_last_output(self, k):
        """A last entry a hair under 1.0: a ``u`` in that sliver (or at
        1.0) still reports the last output, not ``k``."""
        rng = np.random.default_rng(k)
        cdf = _random_cdf(rng, 64, k)
        cdf[:, -1] = 1.0 - 2.0 ** -50
        u = np.where(
            rng.random(64) < 0.5, 1.0 - 2.0 ** -52, np.nextafter(cdf[:, -1], 2.0)
        )
        assert self._check(cdf, u).tolist() == [k - 1] * 64

    def test_does_not_modify_its_inputs(self):
        rng = np.random.default_rng(3)
        cdf = _random_cdf(rng, 50, 9)
        u = rng.random(50)
        cdf_before, u_before = cdf.copy(), u.copy()
        self._check(cdf, u)
        assert np.array_equal(cdf, cdf_before) and np.array_equal(u, u_before)
