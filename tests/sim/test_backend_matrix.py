"""Execution-path equivalence matrix: band height x policy spec.

The execute phase's band height (forced here by shrinking
:data:`repro.sim.engine.TILE_ELEMENTS`) carries a bitwise-identity
contract: no band height may change a single simulated number. This
suite pins every registered policy spec (canonical names plus the
lineup variants) against the frozen seed engine
(``tests/sim/reference_engine.py``), untiled and tiled.
"""

import json

import pytest

from repro.api import FIG8_POLICIES, POLICIES, TABLE1_POLICIES, make_policy
from repro.datasets import DatasetModel
from repro.errors import PolicyError
from repro.perfmodel import sec6_cluster
from repro.sim import SimulationConfig, Simulator, engine

from .reference_engine import ReferenceSimulator

ALL_POLICY_SPECS = sorted({*POLICIES.names(), *FIG8_POLICIES, *TABLE1_POLICIES})


def _config() -> SimulationConfig:
    ds = DatasetModel("knob-matrix", 1_200, 120.0 / 1_200, 0.02)
    return SimulationConfig(
        dataset=ds,
        system=sec6_cluster(),
        batch_size=8,
        num_epochs=2,
        seed=7,
    )


def _outcome(run) -> "str | tuple":
    """Canonical JSON of a run, or the PolicyError it raised."""
    try:
        return json.dumps(run().to_dict(), sort_keys=True)
    except PolicyError as exc:
        return ("PolicyError", str(exc))


@pytest.fixture(scope="module")
def reference():
    """One frozen-engine outcome per policy spec."""
    config = _config()
    sim = ReferenceSimulator(config)
    return {
        spec: _outcome(lambda: sim.run(make_policy(spec)))
        for spec in ALL_POLICY_SPECS
    }


@pytest.mark.parametrize("band_rows", [None, 3], ids=["untiled", "tiled"])
@pytest.mark.parametrize("spec", ALL_POLICY_SPECS)
def test_knob_matrix_bitwise_identical(reference, monkeypatch, spec, band_rows):
    config = _config()
    if band_rows is not None:
        length = config.iterations_per_epoch * config.batch_size
        monkeypatch.setattr(engine, "TILE_ELEMENTS", band_rows * length)
    policy = make_policy(spec)
    sim = Simulator(config)
    assert _outcome(lambda: sim.run(policy)) == reference[spec]
