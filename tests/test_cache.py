"""The content-addressed artifact cache: unit behavior and determinism.

The cache's contract is strict: experiment results must be bit-identical
whether the cache is off, cold (populating), or warm (replaying), because
cached artifacts are exact pickled round-trips of what the generators
produce.  The determinism tests here spot-check that contract end to end
on the cluster study and the Figure-6 litmus.
"""

import json
import pickle

import pytest

from repro.cache import (
    CACHE_ENV_VAR,
    ArtifactCache,
    cache_key,
    resolve_cache,
)
from repro.experiments import SMALL, fig6_rows, make_traces, run_cluster_study
from repro.trace.azure import AzureTraceConfig, generate_dataset


# ------------------------------------------------------------------- unit
def test_cache_key_is_stable_and_param_sensitive():
    a = cache_key("kind", {"seed": 1, "n": 10})
    assert a == cache_key("kind", {"n": 10, "seed": 1})  # dict order-free
    assert a != cache_key("kind", {"seed": 2, "n": 10})
    assert a != cache_key("other", {"seed": 1, "n": 10})
    assert a != cache_key("kind", {"seed": 1, "n": 10}, code_version=1)
    assert len(a) == 64


def test_get_or_create_hits_after_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    calls = []

    def factory():
        calls.append(1)
        return {"x": 42}

    key = cache_key("t", {"a": 1})
    assert cache.get_or_create(key, factory) == {"x": 42}
    assert cache.get_or_create(key, factory) == {"x": 42}
    assert calls == [1]
    assert cache.misses == 1 and cache.hits == 1


def test_corrupt_entry_is_a_miss_and_regenerates(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = cache_key("t", {"a": 1})
    cache.put(key, "good")
    cache.path_for(key).write_bytes(b"not a pickle")
    assert cache.get_or_create(key, lambda: "regenerated") == "regenerated"
    # The regenerated value was re-stored and is now readable.
    assert cache.get(key) == (True, "regenerated")


def test_resolve_cache_forms(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    assert resolve_cache(None) is None
    assert resolve_cache(False) is None
    explicit = ArtifactCache(tmp_path)
    assert resolve_cache(explicit) is explicit
    assert resolve_cache(str(tmp_path)).root == tmp_path
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "ambient"))
    assert resolve_cache(None).root == tmp_path / "ambient"
    assert resolve_cache(False) is None  # False beats the environment
    with pytest.raises(TypeError):
        resolve_cache(123)


def test_dataset_cache_round_trip_is_bit_identical(tmp_path):
    cfg = AzureTraceConfig(num_functions=50, duration_minutes=30, seed=7)
    fresh = generate_dataset(cfg, cache=False)
    cold = generate_dataset(cfg, cache=str(tmp_path))
    warm = generate_dataset(cfg, cache=str(tmp_path))
    assert pickle.dumps(fresh) == pickle.dumps(cold) == pickle.dumps(warm)
    assert fresh.fingerprint() == warm.fingerprint()


def test_make_traces_cached_matches_uncached(tmp_path):
    uncached = make_traces(SMALL, cache=False)
    cold = make_traces(SMALL, cache=str(tmp_path))
    store = ArtifactCache(tmp_path)
    warm = make_traces(SMALL, cache=store)
    assert list(uncached) == list(cold) == list(warm)
    for name in uncached:
        assert (
            pickle.dumps(uncached[name])
            == pickle.dumps(cold[name])
            == pickle.dumps(warm[name])
        ), name
    # The warm run served every stored artifact from disk (1 dataset + 3
    # trace samples) and regenerated nothing.
    stored = sum(1 for _ in store.root.rglob("*.pkl"))
    assert stored == 4
    assert store.misses == 0
    assert store.hits == stored


# ----------------------------------------------------------- determinism
def _env_cache(monkeypatch, path):
    if path is None:
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(CACHE_ENV_VAR, str(path))


def test_cluster_study_bit_identical_across_cache_states(tmp_path, monkeypatch):
    outputs = []
    for cache_dir in (None, tmp_path / "c", tmp_path / "c"):  # off, cold, warm
        _env_cache(monkeypatch, cache_dir)
        result = run_cluster_study(SMALL)
        outputs.append(json.dumps(result.as_dict(), sort_keys=True))
    assert outputs[0] == outputs[1] == outputs[2]


def test_fig6_bit_identical_across_cache_states(tmp_path, monkeypatch):
    outputs = []
    for cache_dir in (None, tmp_path / "c", tmp_path / "c"):  # off, cold, warm
        _env_cache(monkeypatch, cache_dir)
        rows = fig6_rows(SMALL, workloads=("skew_frequency",), n_jobs=1)
        outputs.append(json.dumps(rows, sort_keys=True))
    assert outputs[0] == outputs[1] == outputs[2]
