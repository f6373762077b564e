"""The consolidated CLI runs without deprecation warnings; old imports resolve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_module(args, cwd=None):
    """Run ``python -m <args>`` with src on the path; return the process."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", *args],
        cwd=cwd or REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestPolicySpec:
    def test_requires_a_policy(self):
        from repro.errors import ConfigurationError
        from repro.experiments.scaling import PolicySpec

        with pytest.raises(ConfigurationError):
            PolicySpec("NoPFS")


class TestDeprecatedCLIs:
    def test_new_cli_does_not_warn(self, tmp_path):
        proc = run_module(["repro", "cache", "stats", "--cache-dir", str(tmp_path / "c")])
        assert proc.returncode == 0, proc.stderr
        assert "DeprecationWarning" not in proc.stderr

    def test_old_imports_still_resolve(self):
        from repro.experiments.paper import main as experiments_main
        from repro.sweep.cli import main as sweep_main

        assert callable(sweep_main) and callable(experiments_main)
