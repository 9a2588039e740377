"""``python -m repro.analysis`` CLI tests: exit codes, formats, baseline flow."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

DIRTY = """
import random


def pick(items):
    return random.choice(items)
"""

CLEAN = """
def double(n):
    return 2 * n
"""


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture
def project(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "clean_mod.py").write_text(textwrap.dedent(CLEAN), encoding="utf-8")
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, project):
        result = run_cli(["repro"], cwd=project)
        assert result.returncode == 0, result.stderr
        assert "0 finding(s)" in result.stdout

    def test_findings_exit_one(self, project):
        (project / "repro" / "dirty_mod.py").write_text(
            textwrap.dedent(DIRTY), encoding="utf-8"
        )
        result = run_cli(["repro"], cwd=project)
        assert result.returncode == 1
        assert "DET001" in result.stdout

    def test_missing_path_exits_two(self, project):
        result = run_cli(["no_such_dir"], cwd=project)
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_strict_fails_on_unused_suppression(self, project):
        (project / "repro" / "stale.py").write_text(
            "X = 1  # repro: allow[DET001] -- nothing here\n", encoding="utf-8"
        )
        relaxed = run_cli(["repro"], cwd=project)
        strict = run_cli(["repro", "--strict"], cwd=project)
        assert relaxed.returncode == 0
        assert strict.returncode == 1
        assert "unused suppression" in strict.stdout


class TestBaselineFlow:
    def test_write_baseline_then_clean_then_strict_detects_fix(self, project):
        dirty = project / "repro" / "dirty_mod.py"
        dirty.write_text(textwrap.dedent(DIRTY), encoding="utf-8")

        written = run_cli(["repro", "--write-baseline"], cwd=project)
        assert written.returncode == 0
        assert "1 finding(s) recorded" in written.stdout
        baseline = json.loads((project / "contract_baseline.json").read_text())
        assert baseline["version"] == 1
        assert len(baseline["findings"]) == 1

        grandfathered = run_cli(["repro", "--strict"], cwd=project)
        assert grandfathered.returncode == 0

        # fixing the code leaves a stale baseline entry: strict fails, the
        # author must shed the entry in the same change
        dirty.write_text(textwrap.dedent(CLEAN), encoding="utf-8")
        stale = run_cli(["repro", "--strict"], cwd=project)
        assert stale.returncode == 1
        assert "stale baseline" in stale.stdout


class TestOutputs:
    def test_json_format_and_out_file(self, project):
        (project / "repro" / "dirty_mod.py").write_text(
            textwrap.dedent(DIRTY), encoding="utf-8"
        )
        result = run_cli(
            ["repro", "--format", "json", "--out", "contract_report.json"],
            cwd=project,
        )
        assert result.returncode == 1
        stdout_payload = json.loads(result.stdout)
        file_payload = json.loads((project / "contract_report.json").read_text())
        assert stdout_payload == file_payload
        assert file_payload["summary"]["findings"] == 1
        [finding] = file_payload["findings"]
        assert finding["rule"] == "DET001"
        assert finding["fingerprint"]
        assert "DET001" in file_payload["rules"]

    def test_list_rules_prints_full_pack(self, project):
        result = run_cli(["--list-rules"], cwd=project)
        assert result.returncode == 0
        for rule_id in (
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "IO001",
            "IO002",
            "IO003",
            "IO004",
            "SHM001",
            "LOCK001",
            "EXC001",
        ):
            assert rule_id in result.stdout


class TestRepoTree:
    def test_shipped_tree_is_contract_clean(self):
        repo_root = REPO_SRC.parent
        result = run_cli(
            ["src", "benchmarks", "examples", "--strict"], cwd=repo_root
        )
        assert result.returncode == 0, result.stdout + result.stderr
