"""Epoch-major ``run_many`` is bitwise-identical to per-policy runs.

The sharing contract: :meth:`Simulator.run_many_outcomes` iterates
epochs outermost so each epoch's permutation, size gather and noise RNG
states are materialized once and shared by every policy — **even when
the permutation cache is disabled** (the paper-scale regime). This
suite forces the cache off via ``REPRO_PERM_CACHE_MAX_ELEMENTS=0`` and
pins, for every registered policy spec:

* byte-identical results (or identical ``PolicyError`` messages)
  against a fresh per-policy run of the frozen reference engine
  (``tests/sim/reference_engine.py``);
* the sharing counters — permutations built once per epoch
  (``perm_builds == E``, not ``E x P``), noise states derived once per
  ``(epoch, worker)`` and rolled epoch to epoch;
* the rolling slots drain afterwards (``held_epoch is None``, one
  epoch of noise states resident);
* ``run`` and a one-policy ``run_many_outcomes`` build the same number
  of permutations (the rolling slot is lazy, so an epoch no policy
  reads is never built).
"""

import json

import pytest

from repro.api import FIG8_POLICIES, POLICIES, TABLE1_POLICIES, make_policy
from repro.datasets import DatasetModel
from repro.errors import PolicyError
from repro.perfmodel import sec6_cluster
from repro.sim import SimulationConfig, Simulator
from repro.sim.result import SimulationResult
from repro.units import TB

from .reference_engine import reference_run

#: Every registered policy spec (canonical names plus lineup variants),
#: mirroring the engine-equivalence matrix.
ALL_POLICY_SPECS = sorted(
    {*POLICIES.names(), *FIG8_POLICIES, *TABLE1_POLICIES}
)


def _config(name: str, **kw) -> SimulationConfig:
    total_mb = kw.pop("total_mb", 200.0)
    n_samples = kw.pop("n_samples", 2_000)
    ds = DatasetModel(name, n_samples, total_mb / n_samples, 0.02)
    base = dict(
        dataset=ds,
        system=sec6_cluster(),
        batch_size=8,
        num_epochs=3,
        seed=7,
    )
    base.update(kw)
    return SimulationConfig(**base)


#: Two corners: the default noisy scenario (every policy simulates) and
#: the oversized one (LBANN overflow — the PolicyError slots must carry
#: the same error the per-policy run raises, without disturbing peers).
SCENARIOS = {
    "default": _config("rm-default"),
    "oversized": _config(
        "rm-oversized",
        total_mb=1.5 * TB,
        n_samples=4_000,
        num_epochs=2,
        seed=11,
    ),
}


def _canonical(outcome):
    """An outcome's canonical JSON, or its PolicyError as a tuple."""
    if isinstance(outcome, PolicyError):
        return ("PolicyError", str(outcome))
    return json.dumps(outcome.to_dict(), sort_keys=True)


def _expected(config: SimulationConfig, spec: str):
    """What the frozen reference engine produces for ``spec``."""
    try:
        result = reference_run(config, make_policy(spec))
        return json.dumps(result.to_dict(), sort_keys=True)
    except PolicyError as exc:
        return ("PolicyError", str(exc))


@pytest.fixture(scope="module")
def shared():
    """One cache-disabled epoch-major batch per scenario, plus oracles.

    The env override is module-scoped (ScenarioContext reads it at
    construction), so the expected per-policy runs execute under the
    same cache-off regime — isolating the epoch-major sharing as the
    only difference under test.
    """
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_PERM_CACHE_MAX_ELEMENTS", "0")
    data = {}
    try:
        for key, config in SCENARIOS.items():
            sim = Simulator(config)
            assert not sim.ctx.cache_enabled
            # Frequency-driven policies materialize every epoch matrix
            # at *prepare* time (cached sparsely on the context); do it
            # up front so the build delta below counts only the
            # epoch-major loop's materializations.
            sim.ctx.worker_frequencies_sparse()
            builds_before = sim.ctx.perm_builds
            policies = [make_policy(spec) for spec in ALL_POLICY_SPECS]
            outcomes = sim.run_many_outcomes(policies)
            assert len(outcomes) == len(policies)
            data[key] = {
                "sim": sim,
                "policies": policies,
                "outcomes": dict(zip(ALL_POLICY_SPECS, outcomes)),
                "expected": {
                    spec: _expected(config, spec) for spec in ALL_POLICY_SPECS
                },
                "loop_builds": sim.ctx.perm_builds - builds_before,
            }
    finally:
        mp.undo()
    return data


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("spec", ALL_POLICY_SPECS)
def test_bitwise_identical_to_per_policy_run(shared, scenario, spec):
    entry = shared[scenario]
    assert _canonical(entry["outcomes"][spec]) == entry["expected"][spec]


def test_oversized_exercises_error_slots(shared):
    """The oversized batch must actually contain PolicyError slots."""
    outcomes = shared["oversized"]["outcomes"].values()
    assert any(isinstance(o, PolicyError) for o in outcomes)
    assert any(isinstance(o, SimulationResult) for o in outcomes)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_permutations_built_once_per_epoch(shared, scenario):
    """E builds for the whole batch — not E x P (the old cache-off cost)."""
    entry = shared[scenario]
    assert entry["loop_builds"] == SCENARIOS[scenario].num_epochs


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_rolling_slots_released(shared, scenario):
    assert shared[scenario]["sim"].ctx.held_epoch is None


def test_noise_states_derived_once_per_epoch_worker(shared):
    """N x E derives total; every further request is a state clone."""
    config = SCENARIOS["default"]
    sim = shared["default"]["sim"]
    states = sim.plan_cache.noise_states
    n = config.system.num_workers
    assert states.derived == n * config.num_epochs
    # Several noisy policies per epoch -> the clone path dominates.
    assert states.cloned >= states.derived
    # Rolling eviction: only the final epoch's states stay resident.
    assert len(states) == n


def test_size_gathers_shared_across_policies(shared):
    """The rolling sizes slot misses once per epoch and serves the rest."""
    sim = shared["default"]["sim"]
    assert sim.plan_cache.misses == SCENARIOS["default"].num_epochs
    assert sim.plan_cache.hits > 0


def test_run_many_dict_omits_unsupported():
    """``run_many`` keeps the historical dict shape over the new core."""
    config = SCENARIOS["oversized"]
    policies = [make_policy(spec) for spec in ALL_POLICY_SPECS]
    outcomes = Simulator(config).run_many_outcomes(
        [make_policy(spec) for spec in ALL_POLICY_SPECS]
    )
    results = Simulator(config).run_many(policies)
    supported = {
        policy.name: outcome
        for policy, outcome in zip(policies, outcomes)
        if isinstance(outcome, SimulationResult)
    }
    assert set(results) == set(supported)
    for name, result in results.items():
        assert _canonical(result) == _canonical(supported[name])


#: Permutations one policy builds on the cache-disabled default
#: scenario (E=3). Frequency-driven NoPFS reads every epoch at prepare
#: time; stream rewriters read the canonical stream only while cold;
#: parallel staging never reads it.
EXPECTED_BUILDS = {
    "deepio": 3,
    "deepio:opportunistic": 1,
    "deepio:ordered": 3,
    "lbann": 3,
    "lbann:dynamic": 3,
    "lbann:preloading": 3,
    "locality_aware": 1,
    "naive": 3,
    "nopfs": 5,
    "parallel_staging": 0,
    "perfect": 3,
    "pytorch": 3,
    "staging_buffer": 3,
}


@pytest.mark.parametrize("spec", ALL_POLICY_SPECS)
def test_run_and_run_many_build_the_same_permutations(monkeypatch, spec):
    """A lazy hold: no entry point builds an epoch no policy reads, and
    placement-building prepares share the loop's epoch-0 build."""
    monkeypatch.setenv("REPRO_PERM_CACHE_MAX_ELEMENTS", "0")
    config = SCENARIOS["default"]
    single = Simulator(config)
    try:
        single.run(make_policy(spec))
    except PolicyError:
        pass
    many = Simulator(config)
    many.run_many_outcomes([make_policy(spec)])
    assert single.ctx.perm_builds == many.ctx.perm_builds == EXPECTED_BUILDS[spec]
