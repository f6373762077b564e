"""Content-addressed cache: keys, round-trips, hit/miss semantics."""

import json

import numpy as np
import pytest

from repro.datasets import mnist
from repro.experiments.common import scaled_scenario
from repro.perfmodel import sec6_cluster
from repro.sim import (
    DoubleBufferPolicy,
    NoPFSPolicy,
    SimulationResult,
    Simulator,
)
from repro.sweep import CachedOutcome, ResultCache, cell_key, policy_fingerprint


@pytest.fixture(scope="module")
def config():
    return scaled_scenario(
        mnist(0).scaled(0.2), sec6_cluster(num_workers=2), batch_size=16, num_epochs=2
    )


@pytest.fixture(scope="module")
def result(config):
    return Simulator(config).run(NoPFSPolicy())


class TestResultRoundTrip:
    def test_json_round_trip_equality(self, result):
        clone = SimulationResult.from_json(result.to_json())
        assert clone == result

    def test_round_trip_preserves_derived_metrics(self, result):
        clone = SimulationResult.from_dict(result.to_dict())
        assert clone.total_time_s == result.total_time_s
        assert clone.median_epoch_time_s() == result.median_epoch_time_s()
        assert clone.location_breakdown_s() == result.location_breakdown_s()

    def test_round_trip_with_batch_durations(self, config):
        import dataclasses

        cfg = dataclasses.replace(config, record_batch_times=True)
        res = Simulator(cfg).run(NoPFSPolicy())
        clone = SimulationResult.from_json(res.to_json())
        for a, b in zip(res.epochs, clone.epochs):
            assert b.batch_durations is not None
            np.testing.assert_array_equal(a.batch_durations, b.batch_durations)
        # Dataclass equality must not raise on the ndarray field
        # (durations are compare=False; summarized fields still compare).
        assert clone == res


class TestCellKey:
    def test_key_stable_across_rebuilds(self, config):
        k1 = cell_key(config, NoPFSPolicy())
        k2 = cell_key(type(config).from_dict(config.to_dict()), NoPFSPolicy())
        assert k1 == k2

    def test_key_sensitive_to_config(self, config):
        import dataclasses

        other = dataclasses.replace(config, batch_size=config.batch_size * 2)
        assert cell_key(config, NoPFSPolicy()) != cell_key(other, NoPFSPolicy())

    def test_key_sensitive_to_policy_and_its_args(self, config):
        keys = {
            cell_key(config, NoPFSPolicy()),
            cell_key(config, DoubleBufferPolicy(2)),
            cell_key(config, DoubleBufferPolicy(8)),
        }
        assert len(keys) == 3

    def test_fingerprint_covers_constructor_state(self):
        fp = policy_fingerprint(DoubleBufferPolicy(4))
        assert fp["state"]["prefetch_batches"] == 4
        assert fp["name"] == "pytorch"

    def test_non_json_policy_state_raises_clearly(self, config):
        import numpy as np

        from repro.errors import ConfigurationError

        policy = NoPFSPolicy()
        policy.weights = np.ones(3)  # simulate a user policy with array state
        with pytest.raises(ConfigurationError, match="weights.*not JSON-serializable"):
            cell_key(config, policy)

    def test_code_fingerprint_includes_source_digest(self):
        from repro import __version__
        from repro.sweep import code_fingerprint

        fp = code_fingerprint()
        assert fp.startswith(f"{__version__}+")
        assert fp == code_fingerprint()  # stable within a process

    def test_key_sensitive_to_code_fingerprint(self, config, monkeypatch):
        """Simulator source edits (different digest) must miss."""
        import repro.sweep.cache as cache_mod

        before = cell_key(config, NoPFSPolicy())
        monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: "1.0.0+deadbeef")
        assert cell_key(config, NoPFSPolicy()) != before


class TestNumpyStackFingerprint:
    """Cache keys and manifests change with numpy's major.minor."""

    @pytest.fixture()
    def numpy_version(self, monkeypatch):
        from repro.sweep import code_fingerprint

        def use(version):
            monkeypatch.setattr(np, "__version__", version)
            code_fingerprint.cache_clear()
            return code_fingerprint()

        yield use
        monkeypatch.undo()
        code_fingerprint.cache_clear()

    def test_minor_version_changes_fingerprint_and_key(self, config, numpy_version):
        old_fp = numpy_version("1.26.4")
        old_key = cell_key(config, NoPFSPolicy())
        new_fp = numpy_version("2.4.6")
        assert new_fp != old_fp
        assert cell_key(config, NoPFSPolicy()) != old_key

    def test_patch_version_keeps_fingerprint(self, numpy_version):
        fingerprint = numpy_version("2.4.0")
        assert fingerprint.endswith("-numpy2.4")
        assert numpy_version("2.4.6") == fingerprint

    def test_unreadable_source_fallback_names_numpy(self, monkeypatch, numpy_version):
        from pathlib import Path

        from repro import __version__

        def unreadable(self):
            raise OSError("zipped install")

        monkeypatch.setattr(Path, "read_bytes", unreadable)
        assert numpy_version("1.26.4") == f"{__version__}-numpy1.26"
        assert numpy_version("2.4.6") == f"{__version__}-numpy2.4"

    def test_merge_refuses_manifests_from_different_minors(self, config, numpy_version):
        from repro.errors import ConfigurationError
        from repro.sweep import ShardManifest, SweepCell, merge_manifests

        cells = [SweepCell(tag="nopfs", config=config, policy=NoPFSPolicy())]
        numpy_version("1.26.4")
        old = ShardManifest.for_cells(cells)
        numpy_version("2.4.6")
        new = ShardManifest.for_cells(cells)
        with pytest.raises(ConfigurationError, match="different code versions"):
            merge_manifests([old, new])


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, config, result):
        cache = ResultCache(tmp_path)
        key = cell_key(config, NoPFSPolicy())
        assert cache.get(key) is None
        cache.put(key, CachedOutcome(result=result, error=None))
        got = cache.get(key)
        assert got is not None and got.supported
        assert got.result == result

    def test_unsupported_outcome_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, CachedOutcome(result=None, error="does not support"))
        got = cache.get("ab" * 32)
        assert got is not None and not got.supported
        assert got.error == "does not support"

    def test_corrupt_entry_is_a_miss(self, tmp_path, config, result):
        cache = ResultCache(tmp_path)
        key = cell_key(config, NoPFSPolicy())
        cache.put(key, CachedOutcome(result=result, error=None))
        cache.path_for(key).write_text("{truncated")
        assert cache.get(key) is None

    @pytest.mark.parametrize(
        "payload",
        ["null", "[]", "{}", '{"result": {"policy": "x"}}', '{"result": 42}'],
    )
    def test_wrong_shaped_json_is_a_miss(self, tmp_path, config, payload):
        """Valid JSON of the wrong shape degrades to a miss, not a crash."""
        cache = ResultCache(tmp_path)
        key = cell_key(config, NoPFSPolicy())
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text(payload)
        assert cache.get(key) is None

    def test_count_and_contains(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        assert cache.count() == 0
        cache.put("cd" * 32, CachedOutcome(result=result, error=None))
        assert cache.count() == 1
        assert "cd" * 32 in cache
        assert "ef" * 32 not in cache

    def test_empty_message_error_entry_still_hits(self, tmp_path):
        """A bare PolicyError (empty message) must not re-simulate forever."""
        cache = ResultCache(tmp_path)
        cache.put("ee" * 32, CachedOutcome(result=None, error=""))
        got = cache.get("ee" * 32)
        assert got is not None and not got.supported

    def test_entries_record_key_and_code_fingerprint(self, tmp_path, result):
        from repro.sweep import code_fingerprint

        cache = ResultCache(tmp_path)
        cache.put("12" * 32, CachedOutcome(result=result, error=None))
        entry = json.loads(cache.path_for("12" * 32).read_text())
        assert entry["key"] == "12" * 32
        assert entry["code"] == code_fingerprint()
