"""Banded streaming execution is bitwise-identical to whole epochs.

The engine's execute phase materializes each epoch in worker-row
bands of ``max(1, TILE_ELEMENTS // L)`` rows instead of one full
``(N, L)`` matrix. These tests shrink or grow
:data:`repro.sim.engine.TILE_ELEMENTS` to force band heights. The
contract is absolute: for **every** registered policy spec and
**every** band height — single-row, a ragged height that does not
divide N, exactly N, and larger than N — the ``SimulationResult`` JSON
must be byte-equal to the one-band run, and the PolicyError-parity
cases (oversized LBANN) must raise the same message with the same
epoch/worker indices.

Also covers the :class:`~repro.sim.plancache.PlanCache` reuse the
tiling rides on: per-policy scalars computed once, per-epoch size
gathers shared across a ``run_many`` comparison, and the cold-class
template staying read-only.
"""

import json
import math

import numpy as np
import pytest

from repro.api import FIG8_POLICIES, POLICIES, TABLE1_POLICIES, make_policy
from repro.datasets import DatasetModel
from repro.errors import PolicyError
from repro.perfmodel import sec6_cluster
from repro.sim import PlanCache, ScenarioContext, SimulationConfig, Simulator, engine
from repro.sweep import ScenarioGrid, SweepRunner
from repro.units import TB

#: Every registered policy spec: canonical names plus the lineup
#: variants (``deepio:opportunistic``, ``lbann:preloading``, ...).
ALL_POLICY_SPECS = sorted(
    {*POLICIES.names(), *FIG8_POLICIES, *TABLE1_POLICIES}
)

#: N=8 workers; 7 leaves a ragged final band, 1 is the worst case,
#: 8 covers exactly-N, 64 covers a band taller than N.
TILE_HEIGHTS = (1, 7, 8, 64)


def _config(name: str, **kw) -> SimulationConfig:
    total_mb = kw.pop("total_mb", 200.0)
    n_samples = kw.pop("n_samples", 2_000)
    ds = DatasetModel(name, n_samples, total_mb / n_samples, 0.02)
    base = dict(
        dataset=ds,
        system=sec6_cluster(num_workers=8),
        batch_size=8,
        num_epochs=3,
        seed=11,
    )
    base.update(kw)
    return SimulationConfig(**base)


SCENARIOS = {
    "default": _config("tiling-default"),
    "oversized": _config(
        "tiling-oversized", total_mb=1.5 * TB, n_samples=4_000, num_epochs=2
    ),
}


def _samples_per_worker(config: SimulationConfig) -> int:
    """``L``, the width of the scenario's ``(N, L)`` epoch matrices."""
    return config.iterations_per_epoch * config.batch_size


def _force_band_rows(monkeypatch, config: SimulationConfig, rows: int) -> None:
    """Make the engine stream ``config``'s epochs in bands of ``rows``."""
    monkeypatch.setattr(engine, "TILE_ELEMENTS", rows * _samples_per_worker(config))


def _run(sim: Simulator, policy) -> "str | tuple":
    """A result's canonical JSON, or the PolicyError it raised."""
    try:
        return json.dumps(sim.run(policy).to_dict(), sort_keys=True)
    except PolicyError as exc:
        return ("PolicyError", str(exc))


@pytest.fixture(scope="module")
def untiled_runs():
    """Per scenario: the shared context and every spec's one-band outcome."""
    runs = {}
    for key, config in SCENARIOS.items():
        assert config.system.num_workers * _samples_per_worker(config) <= engine.TILE_ELEMENTS
        ctx = ScenarioContext(config)
        sim = Simulator(config, ctx=ctx)
        runs[key] = (ctx, {spec: _run(sim, make_policy(spec)) for spec in ALL_POLICY_SPECS})
    return runs


@pytest.mark.parametrize("tile_rows", TILE_HEIGHTS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("spec", ALL_POLICY_SPECS)
def test_tiled_bitwise_identical(untiled_runs, monkeypatch, scenario, spec, tile_rows):
    ctx, expected = untiled_runs[scenario]
    _force_band_rows(monkeypatch, SCENARIOS[scenario], tile_rows)
    sim = Simulator(SCENARIOS[scenario], ctx=ctx)
    assert _run(sim, make_policy(spec)) == expected[spec]


def test_policy_error_parity_includes_indices(untiled_runs, monkeypatch):
    """Oversized LBANN raises identically — same epoch/worker — in 1-row bands."""
    _, expected = untiled_runs["oversized"]
    outcome = expected["lbann:dynamic"]
    assert isinstance(outcome, tuple), "oversized LBANN must be unsupported"
    _force_band_rows(monkeypatch, SCENARIOS["oversized"], 1)
    tiled = Simulator(SCENARIOS["oversized"])
    assert _run(tiled, make_policy("lbann:dynamic")) == outcome


def _band_rows(config: SimulationConfig) -> list[tuple[int, int]]:
    """The ``(start, stop)`` worker rows of epoch 0's bands."""
    sim = Simulator(config)
    prep = make_policy("naive").prepare(sim.ctx)
    return [(t.rows.start, t.rows.stop) for t in sim.plan_epoch(prep, 0).tiles()]


#: TILE_ELEMENTS settings over an ``(n, length)`` epoch: exactly one
#: epoch, one element short of it, whole and ragged multiples of a row,
#: and less than one row.
BAND_BUDGETS = {
    "one-epoch": lambda n, length: n * length,
    "one-short": lambda n, length: n * length - 1,
    "three-rows": lambda n, length: 3 * length,
    "three-rows-plus-one": lambda n, length: 3 * length + 1,
    "half-row": lambda n, length: length // 2,
}


@pytest.mark.parametrize("budget", sorted(BAND_BUDGETS))
def test_band_count_follows_epoch_shape(monkeypatch, budget):
    """One band up to TILE_ELEMENTS, then ceil(N / max(1, TILE_ELEMENTS // L))."""
    config = SCENARIOS["default"]
    n = config.system.num_workers
    length = _samples_per_worker(config)
    elements = BAND_BUDGETS[budget](n, length)
    monkeypatch.setattr(engine, "TILE_ELEMENTS", elements)
    rows = max(1, elements // length)
    bands = _band_rows(config)
    if elements >= n * length:
        assert bands == [(0, n)]
    assert len(bands) == math.ceil(n / rows)
    assert all(stop - start == rows for start, stop in bands[:-1])
    assert bands[-1][1] == n


def test_epoch_plan_tiles_cover_all_rows(monkeypatch):
    """Tile bands partition the worker rows in order, ragged tail included."""
    config = SCENARIOS["default"]
    _force_band_rows(monkeypatch, config, 3)
    sim = Simulator(config)
    prep = make_policy("staging_buffer").prepare(sim.ctx)
    plan = sim.plan_epoch(prep, 0)
    tiles = list(plan.tiles())
    assert [(t.rows.start, t.rows.stop) for t in tiles] == [(0, 3), (3, 6), (6, 8)]
    stitched = np.vstack([t.ids for t in tiles])
    np.testing.assert_array_equal(stitched, plan.ids)
    sizes = np.vstack([t.sizes_mb for t in tiles])
    np.testing.assert_array_equal(sizes, sim.ctx.sizes_mb[plan.ids])


# -- plan cache ------------------------------------------------------------


def test_plan_scalars_computed_once_per_prepared_policy():
    config = SCENARIOS["default"]
    cache = PlanCache(ScenarioContext(config))
    prep = make_policy("nopfs").prepare(cache.ctx)
    assert cache.scalars(prep) is cache.scalars(prep)


def test_plan_scalars_match_per_epoch_values():
    """The cached cold/warm phases reproduce the per-epoch arithmetic."""
    config = SCENARIOS["default"]
    ctx = ScenarioContext(config)
    cache = PlanCache(ctx)
    system = config.system
    for spec in ("naive", "nopfs", "perfect", "locality_aware"):
        prep = make_policy(spec).prepare(ctx)
        scalars = cache.scalars(prep)
        for epoch in range(config.num_epochs):
            if prep.ideal:
                fraction = 0.0
            elif epoch < prep.warm_epochs:
                fraction = 1.0
            elif prep.warm_pfs_fraction is not None:
                fraction = float(prep.warm_pfs_fraction)
            elif not prep.pfs_in_warm:
                fraction = 0.0
            else:
                fraction = scalars.uncovered_fraction
            phase = scalars.phase(epoch < prep.warm_epochs)
            assert phase.pfs_fraction == fraction
            assert phase.gamma == float(
                system.pfs.effective_gamma(ctx.num_workers, fraction)
            )


def test_run_many_shares_epoch_size_gathers():
    """A multi-policy comparison gathers each epoch's sizes only once."""
    config = SCENARIOS["default"]
    sim = Simulator(config)
    policies = [make_policy(s) for s in ("naive", "staging_buffer", "nopfs")]
    results = sim.run_many(policies)
    assert len(results) == len(policies)
    # One miss per epoch; every later (policy, epoch) visit is a hit.
    assert sim.plan_cache.misses == config.num_epochs
    assert sim.plan_cache.hits == (len(policies) - 1) * config.num_epochs


def test_shared_matrices_are_read_only():
    config = SCENARIOS["default"]
    sim = Simulator(config)
    prep = make_policy("naive").prepare(sim.ctx)
    plan = sim.plan_epoch(prep, 0)
    tile = plan.tile(slice(0, sim.ctx.num_workers))
    with pytest.raises(ValueError):
        tile.sizes_mb[0, 0] = 0.0
    with pytest.raises(ValueError):
        tile.local_classes[0, 0] = 0


def test_sweep_runner_tile_rows_matches_untiled(monkeypatch):
    """Forced 3-row bands yield byte-equal results through the sweep layer."""
    from repro.sim import NaivePolicy, NoPFSPolicy

    ds = DatasetModel("tiling-sweep", 1_000, 0.1, 0.02)
    grid = ScenarioGrid(
        datasets=[ds],
        systems=[sec6_cluster(num_workers=4)],
        policies=[NaivePolicy(), NoPFSPolicy()],
        batch_sizes=[8],
        epoch_counts=[2],
    )
    plain = SweepRunner().run(grid)
    _force_band_rows(monkeypatch, grid.cells()[0].config, 3)
    tiled = SweepRunner().run(grid)
    assert set(plain.results) == set(tiled.results)
    for tag, result in plain.results.items():
        assert json.dumps(tiled.results[tag].to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )
