"""Result cache: round trips, checksum rejection, atomic writes."""

import json
import os

import pytest

from diffops.basis import almost_commuting
from diffops.cache import CACHE_ENV_VAR, ResultCache, _checksum, default_cache_root
from diffops.formats import FORMAT_VERSION
from diffops.hierarchy import gd_equations


def test_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    result = almost_commuting(3, 4)
    cache.put(3, 4, result)
    loaded = cache.get(3, 4)
    assert loaded is not None
    assert loaded.P == result.P
    assert loaded.H == result.H


def test_miss_on_absent_entry(tmp_path):
    assert ResultCache(tmp_path).get(5, 5) is None


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 2, almost_commuting(3, 2))
    path = cache.entry_path(3, 2)
    path.write_text(path.read_text()[: 40], encoding="utf-8")  # truncate
    assert cache.get(3, 2) is None


def test_checksum_tamper_rejected(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 2, almost_commuting(3, 2))
    path = cache.entry_path(3, 2)
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["payload"]["m"] = 9
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get(3, 2) is None


@pytest.mark.parametrize("coeff", ["1/0", "1.5", "abc", "2/4"])
def test_non_canonical_coefficient_is_a_miss(tmp_path, coeff):
    # the checksum is recomputed, so only the coefficient parser can refuse it
    cache = ResultCache(tmp_path)
    cache.put(3, 4, almost_commuting(3, 4))
    path = cache.entry_path(3, 4)
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["payload"]["P"]["coefficients"][0][0]["coeff"] = coeff
    entry["checksum"] = _checksum(entry["payload"])
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get(3, 4) is None


def test_key_mismatch_rejected(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 2, almost_commuting(3, 2))
    os.rename(cache.entry_path(3, 2), cache.entry_path(3, 5))
    assert cache.get(3, 5) is None


def test_no_temp_files_left_behind(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 2, almost_commuting(3, 2))
    cache.put(3, 2, almost_commuting(3, 2))
    leftovers = [name for name in os.listdir(cache.version_dir) if name.endswith(".tmp")]
    assert leftovers == []


def test_entries_and_clear(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 2, almost_commuting(3, 2))
    cache.put(2, 3, almost_commuting(2, 3))
    assert cache.entries() == [(2, 3), (3, 2)]
    assert cache.clear() == 2
    assert cache.entries() == []


def test_version_directory_layout(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 2, almost_commuting(3, 2))
    assert cache.entry_path(3, 2).parent.name == f"v{FORMAT_VERSION}"


def test_env_var_controls_root(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "elsewhere"))
    assert default_cache_root() == tmp_path / "elsewhere"
    monkeypatch.delenv(CACHE_ENV_VAR)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_root() == tmp_path / "xdg" / "diffops"


def test_interrupted_write_leaves_no_readable_corruption(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    good = almost_commuting(3, 2)
    cache.put(3, 2, good)

    def exploding_replace(src, dst):
        raise RuntimeError("simulated crash before rename")

    monkeypatch.setattr(os, "replace", exploding_replace)
    try:
        cache.put(3, 2, almost_commuting(3, 4))
    except RuntimeError:
        pass
    monkeypatch.undo()
    leftovers = [n for n in os.listdir(cache.version_dir) if n.endswith(".tmp")]
    assert leftovers == []
    survivor = cache.get(3, 2)
    assert survivor is not None and survivor.P == good.P


def test_concurrent_writers_converge(tmp_path):
    import threading

    cache = ResultCache(tmp_path)
    result = almost_commuting(3, 4)
    errors = []

    def writer():
        try:
            for _ in range(10):
                cache.put(3, 4, result)
                got = cache.get(3, 4)
                assert got is None or got.P == result.P
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    final = cache.get(3, 4)
    assert final is not None and final.P == result.P


def test_basis_reuses_cache(tmp_path, monkeypatch):
    import diffops.basis as basis_module

    cache = ResultCache(tmp_path)
    first = basis_module.almost_commuting(3, 4, cache=cache)

    def boom(*args, **kwargs):
        raise AssertionError("cache hit must not recompute")

    monkeypatch.setattr(basis_module, "solve_triangular", boom)
    second = basis_module.almost_commuting(3, 4, cache=cache)
    assert second.P == first.P and second.H == first.H


def test_warm_basis_reads_each_entry_once(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    gd_equations(5, 9, cache=cache)
    reads = []
    get = ResultCache.get

    def counting_get(self, n, m):
        reads.append((n, m))
        return get(self, n, m)

    monkeypatch.setattr(ResultCache, "get", counting_get)
    gd_equations(5, 9, cache=cache)
    assert reads == [(5, m) for m in range(1, 10)]
