"""Failure-injection tests for the offline bundle (a mechanism arena)."""

import json

import numpy as np
import pytest

from repro.exceptions import MechanismError, PrivacyViolationError
from repro.core.msm import MultiStepMechanism
from repro.core.store import load_mechanism, write_mechanism
from repro.serve.arena import MANIFEST_NAME, ArenaError
from repro.testing import rewrite_arena_array, truncate_tail


@pytest.fixture
def bundle_path(fine_prior, tmp_path):
    msm = MultiStepMechanism.build(0.9, 3, fine_prior, rho=0.8)
    return write_mechanism(msm, tmp_path / "b").directory


def _root_cdf(bundle_path) -> np.ndarray:
    """The root node's CDF rows (level 0 holds only the root)."""
    return np.load(bundle_path / "cdf_0.npy").copy()


class TestBundleFailureModes:
    def test_unsupported_version_rejected(self, bundle_path):
        manifest_path = bundle_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 99  # a future format
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArenaError, match="format"):
            load_mechanism(bundle_path)

    def test_corrupted_matrix_rejected(self, bundle_path):
        """A re-checksummed node whose rows no longer sum to one must
        not load."""
        rewrite_arena_array(bundle_path, "cdf_0", _root_cdf(bundle_path) * 0.5)
        with pytest.raises(PrivacyViolationError, match="stochastic"):
            load_mechanism(bundle_path)

    def test_negative_matrix_rejected(self, bundle_path):
        cdf = _root_cdf(bundle_path)
        cdf[0, 0] = cdf[0, 1] + 0.5  # the second step goes negative
        rewrite_arena_array(bundle_path, "cdf_0", cdf)
        with pytest.raises(PrivacyViolationError, match="negative"):
            load_mechanism(bundle_path)

    def test_truncated_file_rejected(self, bundle_path):
        victim = bundle_path / "cdf_1.npy"
        truncate_tail(victim, victim.stat().st_size // 2)
        with pytest.raises(ArenaError, match="checksum"):
            load_mechanism(bundle_path)

    def test_npz_bundle_refused_names_repro_bundle(self, tmp_path):
        """Version-1 and version-2 ``.npz`` bundles are no longer read:
        the loader names the migration instead of guessing."""
        legacy = tmp_path / "austin.npz"
        np.savez(legacy, meta_scalars=np.asarray([2, 3, 2, 0.9]))
        with pytest.raises(MechanismError, match="repro bundle"):
            load_mechanism(legacy)


class TestBundleConfigVerification:
    """A bundle solved for a different configuration is never served."""

    def test_matching_expectations_load(self, bundle_path, fine_prior):
        msm = MultiStepMechanism.build(0.9, 3, fine_prior, rho=0.8)
        restored = load_mechanism(
            bundle_path, expect_budgets=msm.budgets, expect_metric=msm.dq
        )
        assert restored.budgets == msm.budgets

    def test_budget_split_mismatch_rejected(self, bundle_path, fine_prior):
        other = MultiStepMechanism.build(1.7, 3, fine_prior, rho=0.8)
        with pytest.raises(MechanismError, match="epsilon split"):
            load_mechanism(bundle_path, expect_budgets=other.budgets)

    def test_budget_length_mismatch_rejected(self, bundle_path):
        with pytest.raises(MechanismError, match="epsilon split"):
            load_mechanism(bundle_path, expect_budgets=(0.9,))

    def test_metric_mismatch_rejected(self, bundle_path):
        with pytest.raises(MechanismError, match="metric"):
            load_mechanism(bundle_path, expect_metric="manhattan")

    def test_tolerant_to_float_noise_in_budgets(
        self, bundle_path, fine_prior
    ):
        """A split differing only by float round-trip noise still loads."""
        msm = MultiStepMechanism.build(0.9, 3, fine_prior, rho=0.8)
        noisy = tuple(b * (1 + 1e-12) for b in msm.budgets)
        restored = load_mechanism(bundle_path, expect_budgets=noisy)
        assert restored.budgets == msm.budgets
