"""Output checks: the program's answers against independent ground truth.

These run in the harness process after the timed work, so importing
the program here (and re-simulating with the frozen reference engine in
``tests/sim/reference_engine.py``) costs no measured time.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

from common import ROOT, SRC, Checks, digest

_SWEEP_LINE = re.compile(
    r"(?P<cells>\d+) cells in .* cache: (?P<hits>\d+) hit / (?P<misses>\d+) miss"
    r".* (?P<unsupported>\d+) unsupported"
)

#: Reference re-simulations per paper-quick run, drawn from cells with at
#: most this many sample accesses (the frozen engine loops per worker).
REFERENCE_CELLS = 3
REFERENCE_MAX_ACCESSES = 200_000


def import_program() -> None:
    """Make the checkout's ``repro`` (and its ``tests``) importable here."""
    for entry in (str(SRC), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def sweep_stats(stdout: str) -> dict[str, int] | None:
    """The counters of the last ``SweepStats.render()`` line in ``stdout``."""
    matches = list(_SWEEP_LINE.finditer(stdout))
    if not matches:
        return None
    return {k: int(v) for k, v in matches[-1].groupdict().items()}


def figures_text(stdout: str) -> str:
    """A paper-driver render without its timing-dependent sweep section."""
    return stdout.split("=== sweep ===")[0]


def figure_section(stdout: str, name: str) -> str | None:
    """One ``=== name ===`` section of a paper-driver render."""
    for section in stdout.split("\n\n=== "):
        section = section.removeprefix("=== ")
        if section.startswith(f"{name} ===\n"):
            return section
    return None


def read_entries(cache_dir: Path) -> dict[str, dict]:
    """Every cache entry under a ``dir:`` cache, by key."""
    entries = {}
    for path in cache_dir.glob("*/*.json"):
        entries[path.stem] = json.loads(path.read_text())
    return entries


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def results_digest(entries: dict[str, dict], keys) -> str:
    """SHA-256 over the canonical result (or recorded error) of each key."""
    return digest(
        {k: {"result": entries[k].get("result"), "error": entries[k].get("error")}
         for k in sorted(set(keys)) if k in entries}
    )


# -- paper-quick ------------------------------------------------------------


def quick_grid(seed: int, figures: list[str] | None, cache_dir: Path) -> list:
    """The sweep cells ``experiments --profile quick`` evaluates, in order.

    Recorded from the public ``run_figures`` function on a runner that
    reads ``cache_dir``: on the cold pass's cache it simulates nothing.
    """
    import_program()
    from repro.experiments.paper import run_figures
    from repro.sweep import ScenarioGrid, SweepRunner

    recorded = []

    class Recorder(SweepRunner):
        def run(self, grid):
            cells = grid.cells() if isinstance(grid, ScenarioGrid) else list(grid)
            recorded.extend(cells)
            return super().run(cells)

    run_figures(Recorder(n_jobs=1, cache_dir=cache_dir), profile="quick", figures=figures,
                seed=seed)
    return recorded


def fig8_unsupported_keys(seed: int) -> set[str]:
    """Keys of the Fig 8 quick cells the paper marks "Does not support"."""
    import_program()
    from repro.experiments import fig8
    from repro.experiments.paper import FIG8_UNSUPPORTED, QUICK_PARAMS
    from repro.sweep.cache import cell_key

    keys = set()
    for panel, names in FIG8_UNSUPPORTED.items():
        for cell in fig8.cells(panel, seed=seed, **QUICK_PARAMS["fig8"]):
            if cell.policy.name in names:
                keys.add(cell_key(cell.config, cell.policy))
    return keys


def sample_accesses(config) -> int:
    return (
        config.system.num_workers
        * config.iterations_per_epoch
        * config.batch_size
        * config.num_epochs
    )


def check_quick_cold(
    checks: Checks,
    seed: int,
    figures: list[str] | None,
    cold_stdout: str,
    cache_dir: Path,
    mismatch_reference: bool = False,
) -> tuple[int, int, str]:
    """Check a cold pass; returns (cells, simulated sample accesses, digest).

    The cold pass must report every grid cell, miss exactly the
    distinct ones, leave an entry for each, mark unsupported exactly
    the cells ``FIG8_UNSUPPORTED`` names (when Fig 8 ran), and agree
    bitwise with the frozen reference engine on a seeded sample of
    small cells. ``mismatch_reference`` re-simulates each sampled cell
    on another seed, which must fail the check (the benchmark's tests
    use it).
    """
    import_program()
    from repro.errors import PolicyError
    from repro.sweep.cache import cell_key
    from tests.sim.reference_engine import reference_run

    entries = read_entries(cache_dir)
    cells = quick_grid(seed, figures, cache_dir)
    keyed = [(cell_key(c.config, c.policy), c) for c in cells]
    distinct = {}
    for key, cell in keyed:
        distinct.setdefault(key, cell)
    checks.attempt(len(cells))

    stats = sweep_stats(cold_stdout)
    if not checks.expect(stats is not None, len(cells), "cold pass printed no sweep stats"):
        return len(cells), 0, ""
    checks.expect(stats["cells"] == len(cells), abs(stats["cells"] - len(cells)) or 1,
                  f"cold pass swept {stats['cells']} cells, the grid has {len(cells)}")
    checks.expect(stats["misses"] == len(distinct), abs(stats["misses"] - len(distinct)) or 1,
                  f"cold pass missed {stats['misses']}, expected {len(distinct)} distinct cells")

    missing = [k for k in distinct if k not in entries]
    checks.expect(not missing, len(missing), "cells without a cache entry after the cold pass")

    unsupported = {k for k in distinct if k in entries and entries[k].get("error") is not None}
    if figures is None or "fig8" in figures:
        expected = fig8_unsupported_keys(seed)
        wrong = unsupported ^ expected
        checks.expect(not wrong, len(wrong), "unsupported cells differ from FIG8_UNSUPPORTED")

    simulated = [k for k in distinct if k in entries and k not in unsupported]
    samples = sum(sample_accesses(distinct[k].config) for k in simulated)

    small = sorted(
        k for k in simulated if sample_accesses(distinct[k].config) <= REFERENCE_MAX_ACCESSES
    )
    picks = random.Random(seed).sample(small, min(REFERENCE_CELLS, len(small)))
    for key in picks:
        cell = distinct[key]
        config = cell.config
        if mismatch_reference:
            import dataclasses

            config = dataclasses.replace(config, seed=config.seed + 1)
        try:
            expected_result = reference_run(config, cell.policy).to_dict()
        except PolicyError as exc:
            checks.fail(1, f"reference engine rejects cell {key[:12]}: {exc}")
            continue
        checks.expect(
            canonical(expected_result) == canonical(entries[key]["result"]),
            1,
            f"cell {key[:12]} differs from the reference engine",
        )
    return len(cells), samples, results_digest(entries, distinct)


def check_quick_warm(checks: Checks, n_cells: int, cold_stdout: str, warm_stdout: str,
                     ok: bool) -> None:
    """A warm pass: clean exit, zero misses, the cold pass's exact render."""
    checks.attempt(n_cells)
    if not checks.expect(ok, n_cells, "warm pass exited non-zero"):
        return
    stats = sweep_stats(warm_stdout)
    checks.expect(stats is not None and stats["misses"] == 0, n_cells,
                  "warm pass re-simulated cells")
    checks.expect(figures_text(warm_stdout) == figures_text(cold_stdout), n_cells,
                  "warm render differs from the cold render")


def check_figure_query(checks: Checks, figure: str, cold_stdout: str, stdout: str,
                       ok: bool) -> None:
    """A one-figure warm query: clean exit, all hits, the cold pass's section."""
    checks.attempt(1)
    if not checks.expect(ok, 1, f"{figure} query exited non-zero"):
        return
    stats = sweep_stats(stdout)
    checks.expect(stats is not None and stats["misses"] == 0, 1,
                  f"{figure} query re-simulated cells")
    section = figure_section(stdout, figure)
    checks.expect(section is not None and section == figure_section(cold_stdout, figure), 1,
                  f"{figure} query differs from the cold render")


# -- query-warm ---------------------------------------------------------------


def answer_payload(stdout: str) -> tuple[str | None, dict | None]:
    """(fingerprint, result JSON) printed by ``repro run --json -``."""
    fingerprint = None
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("fingerprint: "):
            fingerprint = line.split(": ", 1)[1].strip()
        if line.startswith("{"):
            try:
                return fingerprint, json.loads("\n".join(lines[i:]))
            except json.JSONDecodeError:
                return fingerprint, None
    return fingerprint, None


def check_answer(checks: Checks, expected_key: str, written: dict[str, dict], stdout: str,
                 ok: bool) -> None:
    """A query: clean exit, a cache hit, byte-equal to the set-up's entry."""
    checks.attempt(1)
    if not checks.expect(ok, 1, "query exited non-zero"):
        return
    stats = sweep_stats(stdout)
    if not checks.expect(stats is not None and stats["hits"] == 1 and stats["misses"] == 0, 1,
                         "query was not a cache hit"):
        return
    fingerprint, payload = answer_payload(stdout)
    if not checks.expect(fingerprint == expected_key, 1,
                         f"query answered {fingerprint}, expected {expected_key}"):
        return
    checks.expect(
        payload is not None
        and canonical(payload) == canonical(written[expected_key]["result"]),
        1,
        f"answer for {expected_key[:12]} differs from the entry written during set-up",
    )
