"""Tests for the ``repro-anon`` command-line interface."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.datasets.io import read_transactions, write_transactions


@pytest.fixture
def transactions_file(paper_dataset, tmp_path):
    path = tmp_path / "data.txt"
    write_transactions(paper_dataset, path, delimiter="|")
    # rewrite with the default (space) delimiter expected by the CLI
    path.write_text(
        "\n".join(" ".join(sorted(t.replace(" ", "_") for t in record)) for record in paper_dataset)
        + "\n"
    )
    return path


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for command in ("anonymize", "reconstruct", "evaluate", "generate", "audit"):
            args = {"anonymize": ["anonymize", "in", "--output", "out"],
                    "reconstruct": ["reconstruct", "in", "--output", "out"],
                    "evaluate": ["evaluate", "orig", "pub"],
                    "generate": ["generate", "--output", "out"],
                    "audit": ["audit", "in"]}[command]
            parsed = parser.parse_args(args)
            assert parsed.command == command

    def test_start_up_imports_no_numpy(self):
        """Only the dataset generators need numpy; the CLI imports them on use."""
        code = "import sys, repro.cli; print('numpy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_generate_quest(self, tmp_path, capsys):
        output = tmp_path / "synthetic.txt"
        code = main(
            ["generate", "--output", str(output), "--records", "200", "--domain", "50", "--seed", "1"]
        )
        assert code == 0
        assert len(read_transactions(output)) == 200
        assert "wrote 200 records" in capsys.readouterr().out

    def test_generate_proxy_profile(self, tmp_path):
        output = tmp_path / "wv1.txt"
        code = main(
            ["generate", "--output", str(output), "--profile", "WV1", "--scale", "0.005", "--seed", "2"]
        )
        assert code == 0
        assert len(read_transactions(output)) > 100

    def test_anonymize_evaluate_reconstruct_audit_round_trip(
        self, transactions_file, tmp_path, capsys
    ):
        published_path = tmp_path / "published.json"
        code = main(
            [
                "anonymize",
                str(transactions_file),
                "--output",
                str(published_path),
                "--k",
                "3",
                "--m",
                "2",
                "--max-cluster-size",
                "6",
            ]
        )
        assert code == 0
        assert published_path.exists()
        assert "anonymized 10 records" in capsys.readouterr().out

        assert main(["audit", str(published_path)]) == 0
        assert "passed" in capsys.readouterr().out

        code = main(
            ["evaluate", str(transactions_file), str(published_path), "--top-k", "20"]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) == {"tkd_a", "tkd", "re_a", "re", "tlost"}

        world_path = tmp_path / "world.txt"
        code = main(["reconstruct", str(published_path), "--output", str(world_path), "--seed", "4"])
        assert code == 0
        assert len(read_transactions(world_path)) == 10

    def test_anonymize_no_refine_flag(self, transactions_file, tmp_path):
        published_path = tmp_path / "published.json"
        code = main(
            [
                "anonymize",
                str(transactions_file),
                "--output",
                str(published_path),
                "--k",
                "3",
                "--max-cluster-size",
                "6",
                "--no-refine",
            ]
        )
        assert code == 0
        payload = json.loads(published_path.read_text())
        assert all(cluster["type"] == "simple" for cluster in payload["clusters"])

    def test_missing_input_returns_error_code(self, tmp_path, capsys):
        code = main(["anonymize", str(tmp_path / "missing.txt"), "--output", str(tmp_path / "o.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_audit_missing_file_returns_error_code(self, tmp_path):
        assert main(["audit", str(tmp_path / "missing.json")]) == 2
