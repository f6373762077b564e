"""Sweep-engine throughput: executors, cold vs warm, serial vs parallel.

Benchmarks the :mod:`repro.sweep` layer itself on Fig 8-shaped grids
(the nine-policy lineup on ImageNet-1k), reporting simulation
throughput in grid cells per second, the executor comparison on a
multi-scenario grid (where ``batched`` amortizes worker spawn/pickle
overhead and shares one access-stream build per scenario instead of
one per cell), and the warm-cache hit rate (which should be 100%: a
repeated sweep performs zero re-simulations).
"""

import dataclasses
import tempfile
import time

from repro.datasets import imagenet1k
from repro.experiments.common import policy_cells, scaled_scenario
from repro.perfmodel import sec6_cluster
from repro.api import fig8_lineup
from repro.sweep import SweepRunner


def _grid(seed: int = 1):
    config = scaled_scenario(
        imagenet1k(seed),
        sec6_cluster(),
        batch_size=32,
        num_epochs=3,
        scale=0.02,
        seed=seed,
    )
    return policy_cells(config, fig8_lineup())


def _multi_scenario_grid(n_scenarios: int = 6):
    """The batched executor's home turf: many policies x many scenarios.

    Two epochs keeps the per-cell simulation short relative to the
    access-stream build, which is exactly the overhead the executors
    differ on: ``process`` pays one build per cell (9 per scenario for
    the Fig 8 lineup), ``batched`` one per scenario.
    """
    cells = []
    for seed in range(1, n_scenarios + 1):
        config = scaled_scenario(
            imagenet1k(seed),
            sec6_cluster(),
            batch_size=32,
            num_epochs=2,
            scale=0.02,
            seed=seed,
        )
        cells.extend(
            policy_cells(config, fig8_lineup(), tag_fn=lambda p, s=seed: (s, p.name))
        )
    return cells


def _seed_replica_grid(seeds=(1, 2, 3)):
    """The one-scenario Fig 8 lineup (:func:`_grid`) under several seeds."""
    config = _grid()[0].config
    cells = []
    for seed in seeds:
        cells.extend(
            policy_cells(
                dataclasses.replace(config, seed=seed),
                fig8_lineup(),
                tag_fn=lambda p, s=seed: (s, p.name),
            )
        )
    return cells


def _compare_executors(cells):
    """({executor: wall seconds}, {executor: outcome}) for one grid."""
    timings: dict[str, float] = {}
    outcomes = {}
    for executor, jobs in (("serial", 1), ("process", 2), ("batched", 2)):
        start = time.perf_counter()
        outcomes[executor] = SweepRunner(n_jobs=jobs, executor=executor).run(cells)
        timings[executor] = time.perf_counter() - start
    return timings, outcomes


def _render(timings, outcomes):
    return [
        f"{name:8s} {timings[name]:7.2f}s  {outcomes[name].stats.render()}"
        for name in ("serial", "process", "batched")
    ]


def test_executor_comparison(report):
    """serial vs process vs batched on a multi-policy scenario grid.

    The ISSUE 4 acceptance criterion: ``batched`` must beat ``process``
    here — the process executor rebuilds the scenario's access streams
    once per *cell* (9x per scenario for the Fig 8 lineup), batched
    once per *scenario batch*. Two more shapes are reported, not
    asserted: the one-scenario lineup, where ``batched`` has a single
    batch and ``process`` is the only executor using both workers, and
    that lineup under three seeds (three batches).
    """
    cells = _multi_scenario_grid()
    timings, outcomes = _compare_executors(cells)
    lines = _render(timings, outcomes)
    lines.append(
        f"batched vs process speedup: {timings['process'] / timings['batched']:.2f}x"
    )
    for title, shape in (
        ("one-scenario Fig 8 lineup", _grid()),
        ("Fig 8 lineup x 3 seeds", _seed_replica_grid()),
    ):
        lines.append(f"-- {title} ({len(shape)} cells, jobs=2) --")
        lines.extend(_render(*_compare_executors(shape)))
    report("sweep_executors", "\n".join(lines))

    # Identical results are a hard invariant; the speedup is the point.
    serial = outcomes["serial"]
    for tag in serial.results:
        assert outcomes["process"][tag] == serial[tag], tag
        assert outcomes["batched"][tag] == serial[tag], tag
    assert timings["batched"] < timings["process"], (
        f"batched ({timings['batched']:.2f}s) should beat process "
        f"({timings['process']:.2f}s) on multi-policy scenario grids"
    )


def test_sweep_throughput(benchmark, report):
    """Cold serial sweep: the baseline cells/sec of the engine."""
    cells = _grid()
    outcome = benchmark.pedantic(
        SweepRunner(n_jobs=1).run, args=(cells,), rounds=1, iterations=1
    )
    lines = [f"serial cold:   {outcome.stats.render()}"]

    with tempfile.TemporaryDirectory() as tmp:
        cached = SweepRunner(n_jobs=1, cache_dir=tmp)
        cold = cached.run(cells)
        warm = cached.run(cells)
        lines.append(f"cached cold:   {cold.stats.render()}")
        lines.append(f"cached warm:   {warm.stats.render()}")
        assert warm.stats.misses == 0, "warm cache must not re-simulate"
        assert warm.stats.hit_rate == 1.0
        assert warm.stats.cells_per_sec > cold.stats.cells_per_sec

    parallel = SweepRunner(n_jobs=2).run(cells)
    lines.append(f"parallel cold: {parallel.stats.render()}")
    for tag, result in outcome.results.items():
        assert parallel.results[tag] == result, f"parallel result differs for {tag}"

    report("sweep", "\n".join(lines))
