"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``.

They run each workload at a tiny size, so they take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import common  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.per_layer_units()


def test_tail_is_never_below_p90():
    assert common.tail(list(range(200))) == 189  # ten samples beyond it
    assert common.tail(list(range(20))) == 17  # nearest-rank p90
    assert common.tail([3.0]) == 3.0


@pytest.fixture(autouse=True)
def _clean_work():
    shutil.rmtree(common.WORK, ignore_errors=True)
    yield
    shutil.rmtree(common.WORK, ignore_errors=True)


def _non_negative(report, names):
    assert set(report.metrics) == set(names)
    for name in names:
        # Tracing overhead is a difference of two noisy walls; it may dip below 0.
        if name != "trace.overhead_s":
            assert report.metrics[name] >= 0, name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(name):
    report = workloads.WORKLOADS[name](seed=3, seconds=0.5, trace=False, tiny=True)
    assert report.checks.failed == 0, report.checks.reasons
    assert report.checks.attempted > 0
    _non_negative(report, workloads.END_TO_END)
    assert all(report.metrics[n] > 0 for n in workloads.END_TO_END)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_workload_reports_every_layer_metric(name):
    report = workloads.WORKLOADS[name](seed=3, seconds=0.5, trace=True, tiny=True)
    assert report.checks.failed == 0, report.checks.reasons
    _non_negative(report, workloads.per_layer_units())
    assert report.metrics["failed_frac"] == 0
    assert (common.ROOT / report.notes["trace"]).is_file()


def test_tampered_cache_entry_fails_queries():
    report = workloads.query_warm(seed=3, seconds=0.5, trace=False, tiny=True,
                                  fault="tamper-cache")
    assert report.checks.failed_frac > 0


def test_mismatched_reference_cell_fails(monkeypatch):
    monkeypatch.setattr(checks, "REFERENCE_CELLS", 1)
    report = workloads.paper_quick(seed=3, seconds=0.5, trace=False, tiny=True,
                                   fault="mismatch-reference")
    assert report.checks.failed_frac > 0
    assert any("reference engine" in r for r in report.checks.reasons)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_drawn_scenarios_are_distinct_and_seeded():
    for seed in range(200):
        drawn = workloads.draw_scenarios(seed, 12)
        assert len({json.dumps(s, sort_keys=True) for s in drawn}) == 12
    assert workloads.draw_scenarios(5, 12) == workloads.draw_scenarios(5, 12)
