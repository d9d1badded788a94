"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.exceptions import MechanismError


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "fig5"])
        assert args.name == "fig5"
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "fig99"])

    def test_dataset_choices(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["info", "--dataset", "foursquare"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--dataset", "gowalla", "--fraction", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "gowalla-austin" in out
        assert "check-ins" in out

    def test_plan(self, capsys):
        assert main(["plan", "--epsilon", "0.9", "--g", "3"]) == 0
        out = capsys.readouterr().out
        assert "index height : 2" in out
        assert "STARVED" in out

    def test_sanitize(self, capsys):
        code = main([
            "sanitize", "--dataset", "gowalla", "--fraction", "0.01",
            "--epsilon", "0.5", "--g", "3", "--x", "10.0", "--y", "10.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "reported" in out

    def test_sanitize_out_of_domain(self):
        with pytest.raises(SystemExit, match="outside"):
            main([
                "sanitize", "--dataset", "gowalla", "--fraction", "0.01",
                "--epsilon", "0.5", "--x", "500.0", "--y", "10.0",
            ])

    def test_experiment_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "ablation.csv"
        code = main([
            "experiment", "ablation-budget", "--dataset", "gowalla",
            "--fraction", "0.01", "--requests", "50",
            "--csv", str(csv_path),
        ])
        assert code == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "budget split" in out


    def test_serve_with_ledger_dir(self, capsys, tmp_path):
        """One worker, journalled: every request is served and a second
        run replays the first run's spend before serving."""
        ledgers = tmp_path / "ledgers"
        argv = [
            "serve", "--dataset", "gowalla", "--fraction", "0.01",
            "--epsilon", "0.5", "--lifetime-epsilon", "100", "--g", "2",
            "--prior-granularity", "4", "--requests", "12",
            "--clients", "3", "--workers", "1",
            "--ledger-dir", str(ledgers),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 users, 0.0000 eps replayed" in out
        assert "requests   : 12 admitted, 12 completed" in out
        assert (ledgers / "shard-000.journal").exists()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "3 users, 6.0000 eps replayed, 0 corrupt lines" in out


class TestBundleCommands:
    def test_bundle_roundtrip_via_cli(self, capsys, tmp_path):
        bundle_path = tmp_path / "b"
        assert main([
            "bundle", "--dataset", "gowalla", "--fraction", "0.01",
            "--epsilon", "0.9", "--g", "3", "--out", str(bundle_path),
        ]) == 0
        assert (bundle_path / "manifest.json").exists()
        assert main([
            "sanitize", "--bundle", str(bundle_path),
            "--x", "10.0", "--y", "10.0", "--remap",
        ]) == 0
        out = capsys.readouterr().out
        assert "node LPs" in out
        assert "reported" in out

    def test_sanitize_refuses_npz_bundle(self, tmp_path):
        legacy = tmp_path / "old.npz"
        legacy.write_bytes(b"PK\x03\x04")
        with pytest.raises(MechanismError, match="repro bundle"):
            main([
                "sanitize", "--bundle", str(legacy),
                "--x", "10.0", "--y", "10.0",
            ])

    def test_sanitize_requires_epsilon_without_bundle(self):
        with pytest.raises(SystemExit, match="epsilon"):
            main(["sanitize", "--x", "1.0", "--y", "1.0",
                  "--fraction", "0.01"])
